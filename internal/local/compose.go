package local

import (
	"math"
	"math/rand/v2"
)

// This file implements the Section 2 machinery of the paper: sequential
// composition A1;A2 of local algorithms under non-simultaneous wake-up via
// the α-synchronizer, plus round restriction ("the algorithm A restricted to
// i rounds") and a masked sub-execution helper shared by the transformer
// wrappers.
//
// Composition semantics. Each node executes the stages one after the other,
// advancing through per-stage local rounds. A node may execute local round t
// of stage s only once every neighbour has executed round t-1 of stage s or
// advanced past it (the α-synchronizer rule); whenever a node executes a
// step it sends an envelope carrying its position to every neighbour, so a
// blocked node always knows when to proceed. The node with the globally
// minimal position can always step, so composition never deadlocks, and the
// standard induction yields Observation 2.1: the composed running time is at
// most the sum of the stage running times.

// Stage is one algorithm in a composition.
type Stage struct {
	// Algo is the algorithm to run in this stage.
	Algo Algorithm
	// MakeInput derives this stage's node input from the node's original
	// input and the previous stage's output at this node. If nil, stage 0
	// uses the original input and later stages use the previous output.
	MakeInput func(orig, prev any) any
}

// pos is a (stage, round) position; positions are ordered lexicographically.
type pos struct{ s, t int }

func (p pos) less(q pos) bool { return p.s < q.s || (p.s == q.s && p.t < q.t) }

// composeEnv is the envelope exchanged by composed nodes. Envelopes are sent
// by pointer and a round with no payloads shares one envelope across all
// ports. Envelope storage is double-buffered by round parity instead of
// allocated per round, as the message-reuse rule of Node allows: a
// receiver reads an envelope only in the round after it was sent, and the
// sender rewrites a parity's envelopes two rounds after they were sent.
type composeEnv struct {
	at      pos
	payload Message
	allDone bool
}

// Compose returns the sequential composition of the given stages as a single
// algorithm (the paper's A1;A2;...;Ak). Every stage algorithm must terminate
// at every node on its own.
func Compose(name string, stages ...Stage) Algorithm {
	return AlgorithmFunc{
		AlgoName: name,
		NewNode: func(info Info) Node {
			n := &composeNode{info: info, stages: stages}
			n.seen = make([]pos, info.Degree)
			for p := range n.seen {
				n.seen[p] = pos{-1, -1}
			}
			n.nbDone = make([]bool, info.Degree)
			scratch := make([]Message, 2*info.Degree)
			n.innerRecv, n.envs = scratch[:info.Degree:info.Degree], scratch[info.Degree:]
			n.startStage()
			return n
		},
	}
}

// bufEntry is one buffered early payload: the port it arrived on, the
// position it was sent from, and the message. Only payloads from
// neighbours ahead of the node's next step are buffered; the α-synchronizer
// keeps neighbours within one position of each other (plus one free step at
// a stage boundary), so a node holds only O(degree) entries at a time and a
// linear scan beats a per-port map. Under simultaneous wake-up, when every
// stage but the last ends in the same round at every node, the buffer stays
// empty.
type bufEntry struct {
	p   int
	at  pos
	msg Message
}

type composeNode struct {
	info   Info
	stages []Stage

	at      pos // next step to execute
	inner   Node
	prevOut any

	seen   []pos
	nbDone []bool
	buf    []bufEntry

	// innerRecv is the inbox of the next inner step: payloads sent from the
	// step's key position land in their port's slot on arrival, and after
	// every step it is cleared and refilled from buf. envs is the send
	// scratch, reused across rounds (the engine consumes a returned send
	// slice before the next Round call, so handing out the same array every
	// round is safe); both are carved from one backing array. quiet and
	// payloadEnvs hold the envelope objects themselves, double-buffered by
	// the parity of the sending round (payloadEnvs slot parity*degree+port).
	innerRecv   []Message
	envs        []Message
	quiet       [2]composeEnv
	payloadEnvs []composeEnv

	// stagePCG/stageRand are the per-stage RNG handed to the stage's inner
	// node, reseeded in place at every stage start with the seeds a fresh
	// DeriveRand would use; the previous stage's node is dead by then.
	stagePCG  rand.PCG
	stageRand *rand.Rand
}

// startStage instantiates the state machine for the current stage.
func (n *composeNode) startStage() {
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

func (n *composeNode) Round(r int, recv []Message) ([]Message, bool) {
	key := n.key()
	for p, m := range recv {
		if m == nil {
			continue
		}
		env, ok := m.(*composeEnv)
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
			// Keys only grow, so a payload sent from behind the key can
			// never be consumed and is dropped here.
			switch {
			case env.at == key:
				n.innerRecv[p] = env.payload
			case key.less(env.at):
				n.buf = append(n.buf, bufEntry{p: p, at: env.at, msg: env.payload})
			}
		}
	}
	// α-synchronizer rule: step (s,t) requires every neighbour at >= (s,t-1).
	if n.at.t > 0 {
		for p := range n.seen {
			if !n.nbDone[p] && n.seen[p].less(key) {
				return nil, false
			}
		}
	}
	send, done := n.inner.Round(n.at.t, n.innerRecv)
	stepped := n.at
	n.at.t++
	finished := false
	if done {
		n.prevOut = n.inner.Output()
		n.at = pos{stepped.s + 1, 0}
		if n.at.s < len(n.stages) {
			n.startStage()
		} else {
			finished = true
		}
	}
	envs := n.envs
	parity := r & 1
	// Ports without a payload share a single envelope; only payload-carrying
	// ports need their own, taken from this parity's half of the pool.
	quiet := &n.quiet[parity]
	*quiet = composeEnv{at: stepped, allDone: finished}
	for p := 0; p < n.info.Degree; p++ {
		if len(send) > 0 && send[p] != nil {
			if n.payloadEnvs == nil {
				n.payloadEnvs = make([]composeEnv, 2*n.info.Degree)
			}
			env := &n.payloadEnvs[parity*n.info.Degree+p]
			*env = composeEnv{at: stepped, payload: send[p], allDone: finished}
			envs[p] = env
		} else {
			envs[p] = quiet
		}
	}
	// One batched memclr over the window (a cache-line-wide wipe) instead of
	// a bounds-checked store per port; it runs after the envelopes are built
	// in case the inner node handed its inbox back as its send slice.
	clear(n.innerRecv)
	if !finished {
		n.refill()
	}
	return envs, finished
}

// key is the position whose payloads the next step consumes: (s, t-1) for
// next step (s, t). At t = 0 no payload matches and every payload from an
// earlier stage is behind the key.
func (n *composeNode) key() pos { return pos{n.at.s, n.at.t - 1} }

// refill moves the buffered payloads sent from the new key into innerRecv
// and drops those behind it, keeping only payloads from further ahead.
func (n *composeNode) refill() {
	key := n.key()
	keep := 0
	for _, e := range n.buf {
		switch {
		case e.at == key:
			n.innerRecv[e.p] = e.msg
		case key.less(e.at):
			n.buf[keep] = e
			keep++
		}
	}
	clear(n.buf[keep:])
	n.buf = n.buf[:keep]
}

func (n *composeNode) Output() any { return n.prevOut }

var _ Node = (*composeNode)(nil)

// WithWakeup returns algorithm a executed under a non-simultaneous wake-up
// pattern: node with identity id stays asleep for delay(id) composed rounds
// before starting a. Sleeping nodes block their neighbours exactly as in the
// paper's asynchronous wake-up model; messages that arrive early are
// buffered by the synchronizer.
func WithWakeup(a Algorithm, delay func(id int64) int) Algorithm {
	sleeper := AlgorithmFunc{
		AlgoName: "sleep",
		NewNode: func(info Info) Node {
			return &sleepNode{remaining: delay(info.ID)}
		},
	}
	return Compose("wakeup("+a.Name()+")", Stage{Algo: sleeper}, Stage{
		Algo: a,
		// The algorithm still sees its original input, not the sleep output.
		MakeInput: func(orig, _ any) any { return orig },
	})
}

type sleepNode struct{ remaining int }

func (s *sleepNode) Round(r int, _ []Message) ([]Message, bool) {
	return nil, r >= s.remaining
}

func (s *sleepNode) Output() any { return nil }

// RestrictRounds returns algorithm a restricted to the given number of
// rounds (Section 2): after budget rounds the node terminates with whatever
// tentative output a has produced. A non-positive budget terminates
// immediately with a nil output.
func RestrictRounds(a Algorithm, budget int) Algorithm {
	return restrictRounds(a, budget, false)
}

// Truncated wraps the tentative output of a node that RestrictRoundsMarked
// force-halted: the inner algorithm had not terminated when the budget
// expired. Output is the inner node's tentative output (nil for a
// non-positive budget, where the inner node never ran a round).
type Truncated struct{ Output any }

// RestrictRoundsMarked is RestrictRounds with provenance: the outputs of
// force-halted nodes are wrapped in Truncated, while nodes whose inner
// algorithm genuinely terminated within the budget keep their plain output.
// Harnesses like cmd/localtrace use the marker to count never-halting nodes
// explicitly instead of conflating them with genuine final-round halts.
func RestrictRoundsMarked(a Algorithm, budget int) Algorithm {
	return restrictRounds(a, budget, true)
}

func restrictRounds(a Algorithm, budget int, mark bool) Algorithm {
	return AlgorithmFunc{
		AlgoName: a.Name() + "|restricted",
		NewNode: func(info Info) Node {
			return &restrictNode{inner: a.New(info), budget: budget, mark: mark}
		},
	}
}

type restrictNode struct {
	inner  Node
	budget int
	mark   bool
	done   bool
	out    any
}

func (n *restrictNode) Round(r int, recv []Message) ([]Message, bool) {
	if n.budget <= 0 {
		if n.mark {
			n.out = Truncated{}
		}
		return nil, true
	}
	var send []Message
	if !n.done {
		var innerDone bool
		send, innerDone = n.inner.Round(r, recv)
		if innerDone {
			n.done = true
			n.out = n.inner.Output()
		}
	}
	if n.done || r+1 >= n.budget {
		if !n.done {
			n.out = n.inner.Output()
			if n.mark {
				n.out = Truncated{Output: n.out}
			}
		}
		return send, true
	}
	return send, false
}

func (n *restrictNode) Output() any { return n.out }

// Subrun drives an inner Node over a masked subset of a host node's ports,
// maintaining the inner round counter. It is the building block used by the
// transformer wrappers (induced-subgraph execution) and by algorithms that
// operate on one layer of a degree partition.
type Subrun struct {
	inner  Node
	ports  []int
	t      int
	done   bool
	output any

	// recvBuf and sendBuf are reused across Step calls: the host consumes the
	// returned scatter slice within its own Round, and the inner node borrows
	// recvBuf only for the duration of its Round.
	recvBuf []Message
	sendBuf []Message
}

// NewSubrun creates a sub-execution of inner seeing only the given host
// ports (in inner-port order).
func NewSubrun(inner Node, ports []int) *Subrun {
	return &Subrun{inner: inner, ports: ports}
}

// Reset re-arms the subrun with a fresh inner node and port set, keeping
// the scratch buffers. Hosts that run one sub-execution per window (the
// alternating algorithm) reuse a single Subrun this way instead of
// allocating one per window.
func (s *Subrun) Reset(inner Node, ports []int) {
	s.inner = inner
	s.ports = ports
	s.t = 0
	s.done = false
	s.output = nil
	// Step only writes the slots of the current ports, so slots of ports
	// dropped by this Reset must not keep last window's messages.
	clear(s.sendBuf)
}

// Clear drops the inner node and makes further Step calls no-ops, so a
// host that has taken its tentative output can release the window's state
// without discarding the pooled buffers. Output keeps returning the value
// captured at the last completed Step.
func (s *Subrun) Clear() {
	s.output = s.Output()
	s.inner = nil
	s.ports = nil
	s.done = true
}

// Done reports whether the inner node has terminated.
func (s *Subrun) Done() bool { return s.done }

// Output returns the inner node's current output (its final output once
// Done; its tentative output otherwise, per the restriction convention).
func (s *Subrun) Output() any {
	if s.done {
		return s.output
	}
	return s.inner.Output()
}

// Rounds returns the inner round after the last one executed: the number
// of inner rounds elapsed, stepped or slept through.
func (s *Subrun) Rounds() int { return s.t }

// Wake returns the first inner round at which the inner node must be
// stepped, given that its inbox stays empty until then (see Sleeper):
// math.MaxInt once the inner node is done, the next inner round if it is
// not a Sleeper or has not started.
func (s *Subrun) Wake() int {
	if s.done {
		return math.MaxInt
	}
	if sl, ok := s.inner.(Sleeper); ok && s.t > 0 {
		return sl.Wake(s.t - 1)
	}
	return s.t
}

// Step executes the next inner round. recv is the host's full inbox
// (indexed by host port); hostDeg is the host degree. The returned slice is
// nil or host-degree-sized with the inner messages scattered to their host
// ports.
func (s *Subrun) Step(recv []Message, hostDeg int) []Message {
	return s.StepAt(s.t, recv, hostDeg)
}

// StepAt executes inner round t, which is at least Rounds(): a host that
// slept through a silent stretch resumes its inner node at the host's
// offset, skipping the inner rounds the inner node promised to idle through
// (see Wake).
func (s *Subrun) StepAt(t int, recv []Message, hostDeg int) []Message {
	if s.done {
		return nil
	}
	if cap(s.recvBuf) < len(s.ports) {
		s.recvBuf = make([]Message, len(s.ports))
	}
	s.recvBuf = s.recvBuf[:len(s.ports)]
	for i, p := range s.ports {
		s.recvBuf[i] = recv[p]
	}
	send, done := s.inner.Round(t, s.recvBuf)
	s.t = t + 1
	if done {
		s.done = true
		s.output = s.inner.Output()
	}
	if len(send) == 0 {
		return nil
	}
	if len(s.sendBuf) != hostDeg {
		s.sendBuf = make([]Message, hostDeg)
	}
	out := s.sendBuf
	for i, p := range s.ports {
		out[p] = send[i]
	}
	return out
}
