package local

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/unilocal/unilocal/internal/graph"
)

// TestComposeObservation21Property is the property-test form of
// Observation 2.1: for random graphs, random stage lengths and random
// wake-up delays, the composed running time never exceeds the sum of the
// stage times plus the wake-up horizon (with the +1-per-stage hand-off
// slack of the synchronizer).
func TestComposeObservation21Property(t *testing.T) {
	f := func(seed int64, s1, s2, s3 uint8, dmax uint8) bool {
		g, err := graph.GNP(40, 0.1, seed)
		if err != nil {
			return false
		}
		k1, k2, k3 := int(s1%9)+1, int(s2%9)+1, int(s3%9)+1
		horizon := int(dmax%13) + 1
		rng := rand.New(rand.NewPCG(uint64(seed), 99))
		delays := make(map[int64]int, g.N())
		maxDelay := 0
		for u := 0; u < g.N(); u++ {
			d := rng.IntN(horizon)
			delays[g.ID(u)] = d
			if d > maxDelay {
				maxDelay = d
			}
		}
		comp := WithWakeup(
			Compose("three", Stage{Algo: idleFor(k1)}, Stage{Algo: idleFor(k2)}, Stage{Algo: idleFor(k3)}),
			func(id int64) int { return delays[id] },
		)
		res, err := Run(g, comp, Options{Seed: seed})
		if err != nil {
			return false
		}
		// Sleep stage takes maxDelay+1 rounds; each composed stage hands off
		// within its own budget under lockstep wake-ups.
		bound := (maxDelay + 1) + k1 + k2 + k3
		return res.Rounds <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestComposeDeepPipeline chains many message-sensitive stages: each stage
// floods from the minimum identity and verifies distances, so any
// misalignment of per-stage rounds surfaces as a wrong output.
func TestComposeDeepPipeline(t *testing.T) {
	g := graph.Caterpillar(12, 1)
	stages := make([]Stage, 0, 6)
	for i := 0; i < 6; i++ {
		stages = append(stages, Stage{
			Algo: flood,
			// Every stage starts fresh from the original input.
			MakeInput: func(orig, _ any) any { return orig },
		})
	}
	comp := WithWakeup(Compose("deep", stages...), func(id int64) int { return int(id) % 5 })
	res, err := Run(g, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := g.IndexOfID(1)
	want := graph.BFSDistances(g, src)
	for u := 0; u < g.N(); u++ {
		if res.Outputs[u] != want[u] {
			t.Fatalf("node %d: stage-6 flood distance %v, want %d", u, res.Outputs[u], want[u])
		}
	}
}

// TestComposeBufferingBoundedLead checks that a node racing many rounds
// ahead of a slow neighbour (long sleep) still delivers: buffered messages
// must survive until the laggard consumes them.
func TestComposeBufferingBoundedLead(t *testing.T) {
	// A path where one end sleeps for a long time.
	g := graph.Path(6)
	comp := WithWakeup(idExchange, func(id int64) int {
		if id == 1 {
			return 40
		}
		return 0
	})
	res, err := Run(g, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u, o := range res.Outputs {
		if o != true {
			t.Fatalf("node %d saw misaligned messages with a 40-round laggard", u)
		}
	}
	if res.Rounds < 40 {
		t.Fatalf("run finished before the laggard woke (%d rounds)", res.Rounds)
	}
}

// TestRestrictInsideCompose exercises restriction as a composed stage: the
// first stage is truncated mid-flood, the second stage must still run
// cleanly on the (arbitrary) truncated outputs.
func TestRestrictInsideCompose(t *testing.T) {
	g := graph.Path(10)
	comp := Compose("truncated-then-full",
		Stage{Algo: RestrictRounds(flood, 3)},
		Stage{Algo: flood, MakeInput: func(orig, _ any) any { return orig }},
	)
	res, err := Run(g, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if res.Outputs[u] != u {
			t.Fatalf("node %d: %v, want %d", u, res.Outputs[u], u)
		}
	}
}

// reuseMsg is one slot of a reuseNode's send storage. A slot the sender
// takes back for reuse is poisoned before it is rewritten, and stays
// poisoned on steps where the sender is silent.
type reuseMsg struct {
	from   int64 // sender identity
	step   int   // sender step that wrote the slot
	sentAt int   // host round of that step
	poison bool
}

// reuseStats is a reuseNode's output: how many messages it read, how many
// of those had been rewritten by their sender before the read, and the
// largest number of host rounds between a send and its read.
type reuseStats struct{ reads, rewritten, maxLag int }

// reuseNode sends, on two of every three steps, a pointer into its own
// send storage of len(slots) slots, taking slot r mod len(slots) at step r.
// With two slots this is exactly what the message-reuse rule of Node
// allows. clock is the host round of the node's host, kept by hostClock.
type reuseNode struct {
	info  Info
	steps int
	slots []reuseMsg
	send  []Message
	clock *int
	stats reuseStats
}

func (n *reuseNode) Round(r int, recv []Message) ([]Message, bool) {
	for p, m := range recv {
		msg, ok := m.(*reuseMsg)
		if !ok {
			continue
		}
		n.stats.reads++
		if msg.poison || msg.from != n.info.Neighbors[p] || msg.step != r-1 {
			n.stats.rewritten++
		}
		n.stats.maxLag = max(n.stats.maxLag, *n.clock-msg.sentAt)
	}
	slot := &n.slots[r%len(n.slots)]
	*slot = reuseMsg{poison: true}
	done := r+1 >= n.steps
	if (n.info.ID+int64(r))%3 == 0 {
		return nil, done
	}
	*slot = reuseMsg{from: n.info.ID, step: r, sentAt: *n.clock}
	for p := range n.send {
		n.send[p] = slot
	}
	return n.send, done
}

func (n *reuseNode) Output() any { return n.stats }

// hostClock stores its host node's round in clock before stepping inner,
// so the reuseNode that inner runs can tell host rounds apart. Each clock
// is written and read only by its own node.
type hostClock struct {
	inner Node
	clock *int
}

func (h *hostClock) Round(r int, recv []Message) ([]Message, bool) {
	*h.clock = r
	return h.inner.Round(r, recv)
}

func (h *hostClock) Output() any { return h.inner.Output() }

// TestComposeMessageReuseRule checks the message-reuse rule of Node under
// Compose with skewed wake-ups: a sender that rewrites the storage of a
// message two of its own steps after sending it is never observed by a
// receiver, even when the α-synchronizer buffers the message for several
// host rounds. A sender that rewrites its storage every step is observed,
// so the check has teeth.
func TestComposeMessageReuseRule(t *testing.T) {
	g, err := graph.GNP(64, 0.08, 11)
	if err != nil {
		t.Fatal(err)
	}
	run := func(slots int, opts Options) reuseStats {
		clocks := make(map[int64]*int, g.N())
		for u := 0; u < g.N(); u++ {
			clocks[g.ID(u)] = new(int)
		}
		sender := AlgorithmFunc{
			AlgoName: "reuse",
			NewNode: func(info Info) Node {
				return &reuseNode{info: info, steps: 12, slots: make([]reuseMsg, slots),
					send: make([]Message, info.Degree), clock: clocks[info.ID]}
			},
		}
		skewed := StaggeredWakeup(sender, 5, 16)
		host := AlgorithmFunc{
			AlgoName: "clocked",
			NewNode: func(info Info) Node {
				return &hostClock{inner: skewed.New(info), clock: clocks[info.ID]}
			},
		}
		res, err := Run(g, host, opts)
		if err != nil {
			t.Fatal(err)
		}
		var sum reuseStats
		for _, o := range res.Outputs {
			s := o.(reuseStats)
			sum.reads += s.reads
			sum.rewritten += s.rewritten
			sum.maxLag = max(sum.maxLag, s.maxLag)
		}
		return sum
	}
	for name, opts := range map[string]Options{"sequential": {Sequential: true}, "4 workers": {Workers: 4}} {
		s := run(2, opts)
		t.Logf("two slots, %s: %d reads, max lag %d host rounds", name, s.reads, s.maxLag)
		if s.rewritten > 0 {
			t.Errorf("two slots, %s: %d of %d reads saw a rewritten message", name, s.rewritten, s.reads)
		}
		if s.reads == 0 || s.maxLag < 3 {
			t.Errorf("two slots, %s: %d reads, max lag %d host rounds; the skew should buffer messages for several rounds",
				name, s.reads, s.maxLag)
		}
	}
	s := run(1, Options{Sequential: true})
	t.Logf("one slot, sequential: %d of %d reads saw a rewritten message", s.rewritten, s.reads)
	if s.rewritten == 0 {
		t.Errorf("one slot: no read saw a rewritten message (%d reads)", s.reads)
	}
}
