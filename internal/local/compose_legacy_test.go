package local

import "math/rand/v2"

// legacyCompose is the pre-refactor Compose, frozen verbatim (modulo
// renaming, and carrying its own position and envelope types so later
// changes to compose.go cannot leak into it) as a differential-testing
// oracle for Compose and a baseline for the BenchmarkCompose* benchmarks:
// every payload, including in-step ones, is appended to the per-node
// buffer on arrival and extracted by a linear scan with swap-delete at the
// next step, and payloads from finished stages stay buffered until the
// node itself finishes a stage.
func legacyCompose(name string, stages ...Stage) Algorithm {
	return AlgorithmFunc{
		AlgoName: name,
		NewNode: func(info Info) Node {
			n := &legacyComposeNode{info: info, stages: stages}
			n.seen = make([]legacyPos, info.Degree)
			for p := range n.seen {
				n.seen[p] = legacyPos{-1, -1}
			}
			n.nbDone = make([]bool, info.Degree)
			n.startStage()
			return n
		},
	}
}

// legacyPos is a (stage, round) position; positions are ordered
// lexicographically.
type legacyPos struct{ s, t int }

func (p legacyPos) less(q legacyPos) bool { return p.s < q.s || (p.s == q.s && p.t < q.t) }

// legacyComposeEnv is the envelope exchanged by legacy composed nodes.
type legacyComposeEnv struct {
	at      legacyPos
	payload Message
	allDone bool
}

// legacyBufEntry is one buffered early payload: the port it arrived on,
// the position it was sent from, and the message.
type legacyBufEntry struct {
	p   int
	at  legacyPos
	msg Message
}

type legacyComposeNode struct {
	info   Info
	stages []Stage

	at      legacyPos // next step to execute
	inner   Node
	prevOut any

	seen   []legacyPos
	nbDone []bool
	buf    []legacyBufEntry

	innerRecv   []Message
	envs        []Message
	quiet       [2]legacyComposeEnv
	payloadEnvs []legacyComposeEnv

	stagePCG  rand.PCG
	stageRand *rand.Rand
}

// startStage instantiates the state machine for the current stage.
func (n *legacyComposeNode) startStage() {
	st := n.stages[n.at.s]
	input := n.info.Input
	if st.MakeInput != nil {
		input = st.MakeInput(n.info.Input, n.prevOut)
	} else if n.at.s > 0 {
		input = n.prevOut
	}
	info := n.info
	info.Input = input
	n.stagePCG.Seed(DeriveSeeds(int64(n.info.Rand.Uint64()), n.info.ID, uint64(n.at.s)))
	if n.stageRand == nil {
		n.stageRand = rand.New(&n.stagePCG)
	}
	info.Rand = n.stageRand
	n.inner = st.Algo.New(info)
}

func (n *legacyComposeNode) Round(r int, recv []Message) ([]Message, bool) {
	for p, m := range recv {
		if m == nil {
			continue
		}
		env, ok := m.(*legacyComposeEnv)
		if !ok {
			continue // foreign message; composed stages only understand envelopes
		}
		if n.seen[p].less(env.at) {
			n.seen[p] = env.at
		}
		if env.allDone {
			n.nbDone[p] = true
		}
		if env.payload != nil {
			n.buf = append(n.buf, legacyBufEntry{p: p, at: env.at, msg: env.payload})
		}
	}
	// α-synchronizer rule: step (s,t) requires every neighbour at >= (s,t-1).
	if n.at.t > 0 {
		need := legacyPos{n.at.s, n.at.t - 1}
		for p := range n.seen {
			if !n.nbDone[p] && n.seen[p].less(need) {
				return nil, false
			}
		}
	}
	if n.innerRecv == nil {
		scratch := make([]Message, 2*n.info.Degree)
		n.innerRecv, n.envs = scratch[:n.info.Degree:n.info.Degree], scratch[n.info.Degree:]
	}
	innerRecv := n.innerRecv
	clear(innerRecv)
	if n.at.t > 0 {
		key := legacyPos{n.at.s, n.at.t - 1}
		for i := 0; i < len(n.buf); {
			if n.buf[i].at == key {
				innerRecv[n.buf[i].p] = n.buf[i].msg
				n.buf[i] = n.buf[len(n.buf)-1]
				n.buf[len(n.buf)-1] = legacyBufEntry{}
				n.buf = n.buf[:len(n.buf)-1]
			} else {
				i++
			}
		}
	}
	send, done := n.inner.Round(n.at.t, innerRecv)
	stepped := n.at
	n.at.t++
	finished := false
	if done {
		n.prevOut = n.inner.Output()
		n.at = legacyPos{stepped.s + 1, 0}
		if n.at.s < len(n.stages) {
			n.dropStaleBuffers(stepped.s)
			n.startStage()
		} else {
			finished = true
		}
	}
	envs := n.envs
	parity := r & 1
	quiet := &n.quiet[parity]
	*quiet = legacyComposeEnv{at: stepped, allDone: finished}
	for p := 0; p < n.info.Degree; p++ {
		if len(send) > 0 && send[p] != nil {
			if n.payloadEnvs == nil {
				n.payloadEnvs = make([]legacyComposeEnv, 2*n.info.Degree)
			}
			env := &n.payloadEnvs[parity*n.info.Degree+p]
			*env = legacyComposeEnv{at: stepped, payload: send[p], allDone: finished}
			envs[p] = env
		} else {
			envs[p] = quiet
		}
	}
	return envs, finished
}

// dropStaleBuffers discards buffered messages from stages <= s, which can no
// longer be consumed.
func (n *legacyComposeNode) dropStaleBuffers(s int) {
	keep := 0
	for i := range n.buf {
		if n.buf[i].at.s > s {
			n.buf[keep] = n.buf[i]
			keep++
		}
	}
	for i := keep; i < len(n.buf); i++ {
		n.buf[i] = legacyBufEntry{}
	}
	n.buf = n.buf[:keep]
}

func (n *legacyComposeNode) Output() any { return n.prevOut }

// legacyWithWakeup is WithWakeup over the legacy composition.
func legacyWithWakeup(a Algorithm, delay func(id int64) int) Algorithm {
	sleeper := AlgorithmFunc{
		AlgoName: "sleep",
		NewNode: func(info Info) Node {
			return &sleepNode{remaining: delay(info.ID)}
		},
	}
	return legacyCompose("wakeup("+a.Name()+")", Stage{Algo: sleeper}, Stage{
		Algo:      a,
		MakeInput: func(orig, _ any) any { return orig },
	})
}
