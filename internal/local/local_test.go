package local

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
)

// idExchange broadcasts the node's identity and checks that the messages
// received on each port match Info.Neighbors; it outputs true on success.
type idExchangeNode struct {
	info Info
	ok   bool
}

func (n *idExchangeNode) Round(r int, recv []Message) ([]Message, bool) {
	switch r {
	case 0:
		return Broadcast(n.info.ID, n.info.Degree), false
	default:
		n.ok = true
		for p, m := range recv {
			id, isInt := m.(int64)
			if !isInt || id != n.info.Neighbors[p] {
				n.ok = false
			}
		}
		return nil, true
	}
}

func (n *idExchangeNode) Output() any { return n.ok }

var idExchange = AlgorithmFunc{
	AlgoName: "id-exchange",
	NewNode:  func(info Info) Node { return &idExchangeNode{info: info} },
}

func TestRunRoutesMessagesByPort(t *testing.T) {
	for _, build := range []func() *graph.Graph{
		func() *graph.Graph { return graph.Grid(4, 5) },
		func() *graph.Graph { return graph.Complete(6) },
		func() *graph.Graph { return graph.Star(8) },
		func() *graph.Graph { g, _ := graph.GNP(60, 0.1, 5); return g },
	} {
		g := build()
		res, err := Run(g, idExchange, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for u, o := range res.Outputs {
			if o != true {
				t.Fatalf("node %d saw mismatched neighbour ids", u)
			}
		}
		if res.Rounds != 2 {
			t.Errorf("rounds = %d, want 2", res.Rounds)
		}
		if res.Messages != int64(2*g.NumEdges()) {
			t.Errorf("messages = %d, want %d", res.Messages, 2*g.NumEdges())
		}
	}
}

// flood computes BFS distance from the node with identity 1.
type floodNode struct {
	info Info
	dist int
}

func (n *floodNode) Round(r int, recv []Message) ([]Message, bool) {
	if r == 0 {
		n.dist = -1
		if n.info.ID == 1 {
			n.dist = 0
			return Broadcast(0, n.info.Degree), false
		}
		return nil, false
	}
	if n.dist >= 0 {
		return nil, true
	}
	for _, m := range recv {
		if d, ok := m.(int); ok {
			n.dist = d + 1
			return Broadcast(n.dist, n.info.Degree), false
		}
	}
	return nil, false
}

func (n *floodNode) Output() any { return n.dist }

var flood = AlgorithmFunc{
	AlgoName: "flood",
	NewNode:  func(info Info) Node { return &floodNode{info: info} },
}

func TestRunFloodDistances(t *testing.T) {
	g := graph.Path(10) // node 0 has identity 1
	res, err := Run(g, flood, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if res.Outputs[u] != u {
			t.Errorf("node %d distance = %v, want %d", u, res.Outputs[u], u)
		}
	}
	// Per-node halt rounds grow with distance.
	if res.HaltRounds[9] <= res.HaltRounds[1] {
		t.Errorf("halt rounds not increasing along the path: %v", res.HaltRounds)
	}
}

// randomOutput exercises per-node determinism: each node outputs a few draws
// from its private RNG.
var randomOutput = AlgorithmFunc{
	AlgoName: "random-output",
	NewNode: func(info Info) Node {
		return &randomOutputNode{info: info}
	},
}

type randomOutputNode struct {
	info Info
	vals [3]uint64
}

func (n *randomOutputNode) Round(r int, _ []Message) ([]Message, bool) {
	for i := range n.vals {
		n.vals[i] = n.info.Rand.Uint64()
	}
	return nil, true
}

func (n *randomOutputNode) Output() any { return n.vals }

func TestRunDeterministicAcrossSchedulers(t *testing.T) {
	g, err := graph.GNP(300, 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(g, randomOutput, Options{Seed: 42, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(g, randomOutput, Options{Seed: 42, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
		t.Fatal("sequential and parallel runs disagree")
	}
	other, err := Run(g, randomOutput, Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(seq.Outputs, other.Outputs) {
		t.Fatal("different seeds produced identical randomness")
	}
}

func TestRunRejectsBadSendSize(t *testing.T) {
	bad := AlgorithmFunc{
		AlgoName: "bad-send",
		NewNode: func(info Info) Node {
			return roundFunc(func(r int, _ []Message) ([]Message, bool) {
				return make([]Message, info.Degree+1), true
			})
		},
	}
	g := graph.Path(3)
	if _, err := Run(g, bad, Options{}); err == nil {
		t.Fatal("oversized send not rejected")
	}
}

// roundFunc adapts a function into a Node with nil output.
type roundFunc func(r int, recv []Message) ([]Message, bool)

func (f roundFunc) Round(r int, recv []Message) ([]Message, bool) { return f(r, recv) }
func (f roundFunc) Output() any                                   { return nil }

func TestRunMaxRounds(t *testing.T) {
	forever := AlgorithmFunc{
		AlgoName: "forever",
		NewNode: func(info Info) Node {
			return roundFunc(func(int, []Message) ([]Message, bool) { return nil, false })
		},
	}
	_, err := Run(graph.Path(2), forever, Options{MaxRounds: 50})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestRunEmptyGraph(t *testing.T) {
	res, err := Run(graphtest.Empty(0), idExchange, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || len(res.Outputs) != 0 {
		t.Fatalf("empty graph: rounds=%d outputs=%d", res.Rounds, len(res.Outputs))
	}
}

// idleFor runs for exactly k rounds, then outputs k.
func idleFor(k int) Algorithm {
	return AlgorithmFunc{
		AlgoName: fmt.Sprintf("idle-%d", k),
		NewNode: func(info Info) Node {
			n := &idleNode{k: k}
			return n
		},
	}
}

type idleNode struct{ k int }

func (n *idleNode) Round(r int, _ []Message) ([]Message, bool) { return nil, r+1 >= n.k }
func (n *idleNode) Output() any                                { return n.k }

func TestComposeRunsStagesInOrder(t *testing.T) {
	g := graph.Grid(3, 3)
	comp := Compose("pipeline", Stage{Algo: idleFor(3)}, Stage{Algo: idleFor(5)})
	res, err := Run(g, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Observation 2.1: composed time <= sum of stage times (all synchronous
	// here, so it should be exactly 8).
	if res.Rounds != 8 {
		t.Errorf("composed rounds = %d, want 8", res.Rounds)
	}
	for u, o := range res.Outputs {
		if o != 5 {
			t.Errorf("node %d output = %v, want last stage output 5", u, o)
		}
	}
}

func TestComposeMakeInputChaining(t *testing.T) {
	// Stage 1 outputs k=2; stage 2 receives it as input and doubles it.
	doubler := AlgorithmFunc{
		AlgoName: "doubler",
		NewNode: func(info Info) Node {
			v := info.Input.(int) * 2
			return &constNode{v: v}
		},
	}
	comp := Compose("chain", Stage{Algo: idleFor(2)}, Stage{Algo: doubler})
	res, err := Run(graph.Path(4), comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outputs {
		if o != 4 {
			t.Fatalf("output = %v, want 4", o)
		}
	}
}

type constNode struct{ v any }

func (n *constNode) Round(int, []Message) ([]Message, bool) { return nil, true }
func (n *constNode) Output() any                            { return n.v }

// TestComposeSynchronizerAlignment is the crucial α-synchronizer test: under
// skewed wake-ups, a message-sensitive algorithm (id-exchange) must still see
// properly aligned per-round messages in stage 2.
func TestComposeSynchronizerAlignment(t *testing.T) {
	g, err := graph.GNP(80, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	delayed := WithWakeup(idExchange, func(id int64) int { return int(id*7) % 13 })
	res, err := Run(g, delayed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u, o := range res.Outputs {
		if o != true {
			t.Fatalf("node %d saw misaligned messages under skewed wake-up", u)
		}
	}
	// Observation 2.1 bound: total <= max delay + T(idExchange) + slack for
	// the sleep stage transition.
	maxDelay := 0
	for u := 0; u < g.N(); u++ {
		if d := int(g.ID(u)*7) % 13; d > maxDelay {
			maxDelay = d
		}
	}
	bound := maxDelay + 2 + 2
	if res.Rounds > bound {
		t.Errorf("composed rounds %d exceed Observation 2.1 bound %d", res.Rounds, bound)
	}
}

func TestComposeObservation21RandomDelays(t *testing.T) {
	g := graph.Caterpillar(10, 2)
	for seed := int64(0); seed < 5; seed++ {
		delay := func(id int64) int { return int((id*2654435761 + int64(seed)*97) % 17) }
		comp := WithWakeup(Compose("two", Stage{Algo: idleFor(4)}, Stage{Algo: flood}), delay)
		res, err := Run(g, comp, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		maxDelay := 0
		for u := 0; u < g.N(); u++ {
			if d := delay(g.ID(u)); d > maxDelay {
				maxDelay = d
			}
		}
		// Stage times: sleep <= maxDelay+1, idle = 4, flood <= diameter+2.
		diam := graph.Diameter(g)
		bound := (maxDelay + 1) + 4 + (diam + 2) + 3
		if res.Rounds > bound {
			t.Errorf("seed %d: rounds %d exceed sum-of-stages bound %d", seed, res.Rounds, bound)
		}
		// Flood must still be correct despite skew.
		for u := 0; u < g.N(); u++ {
			want := graph.BFSDistances(g, graphtest.NodeWithID(g, 1))[u]
			if res.Outputs[u] != want {
				t.Fatalf("seed %d: node %d distance %v, want %d", seed, u, res.Outputs[u], want)
			}
		}
	}
}

func TestRestrictRounds(t *testing.T) {
	g := graph.Path(6)
	// Restricting flood to 3 rounds leaves far nodes with tentative output.
	res, err := Run(g, RestrictRounds(flood, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Errorf("restricted rounds = %d, want 3", res.Rounds)
	}
	if res.Outputs[1] != 1 {
		t.Errorf("near node output = %v, want 1", res.Outputs[1])
	}
	if res.Outputs[5] != -1 {
		t.Errorf("far node output = %v, want tentative -1", res.Outputs[5])
	}
	// A restriction longer than the run changes nothing.
	res2, err := Run(g, RestrictRounds(flood, 100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if res2.Outputs[u] != u {
			t.Errorf("node %d output = %v, want %d", u, res2.Outputs[u], u)
		}
	}
	// Zero budget terminates immediately with nil outputs.
	res3, err := Run(g, RestrictRounds(flood, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Rounds != 1 {
		t.Errorf("zero budget rounds = %d, want 1", res3.Rounds)
	}
}

func TestSubrunMasksPorts(t *testing.T) {
	// Host of degree 4; inner echo node sees only ports 1 and 3.
	echo := &echoNode{}
	s := NewSubrun(echo, []int{1, 3})
	recv := []Message{"a", "b", "c", "d"}
	out := s.Step(recv, 4)
	if len(out) != 4 || out[1] != "hi" || out[3] != "hi" || out[0] != nil || out[2] != nil {
		t.Fatalf("subrun scatter wrong: %v", out)
	}
	out = s.Step(recv, 4)
	if !s.Done() {
		t.Fatal("subrun should be done after round 1")
	}
	if got := s.Output().([]Message); !reflect.DeepEqual(got, []Message{"b", "d"}) {
		t.Fatalf("subrun gathered %v, want [b d]", got)
	}
	if out != nil && (out[1] != nil || out[3] != nil) {
		t.Fatalf("unexpected send after done: %v", out)
	}
}

type echoNode struct{ got []Message }

func (e *echoNode) Round(r int, recv []Message) ([]Message, bool) {
	if r == 0 {
		return []Message{"hi", "hi"}, false
	}
	e.got = append([]Message(nil), recv...)
	return nil, true
}

func (e *echoNode) Output() any { return e.got }
