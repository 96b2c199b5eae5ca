package local_test

// Engine rearchitecture tests: parallel-vs-sequential determinism across
// worker counts, frontier correctness under staggered halting waves, and
// differential testing against the frozen pre-refactor engine
// (engine_legacy_test.go).

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// waveAlgo halts node u at round 1 + (u-th wave)*gap, broadcasting its
// identity every round until then and recording everything it hears. Its
// output — (sum of received identities, receipt count, halt round) — is a
// certificate that the frontier kept exactly the live nodes stepping and
// that no stale lane slot ever leaked into a later round.
func waveAlgo(waves, gap int) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "waves",
		NewNode: func(info local.Info) local.Node {
			return &waveNode{info: info, haltAt: 1 + int(info.ID%int64(waves))*gap}
		},
	}
}

type waveNode struct {
	info   local.Info
	haltAt int
	sum    int64
	count  int64
}

func (n *waveNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for _, m := range recv {
		if id, ok := m.(int64); ok {
			n.sum += id
			n.count++
		}
	}
	if r >= n.haltAt {
		return nil, true
	}
	return local.Broadcast(n.info.ID, n.info.Degree), false
}

func (n *waveNode) Output() any { return [3]int64{n.sum, n.count, int64(n.haltAt)} }

// waveHalt mirrors waveNode's halt schedule for the closed-form expectation.
func waveHalt(id int64, waves, gap int) int { return 1 + int(id%int64(waves))*gap }

func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	gnp, err := graph.GNP(400, 0.02, 17)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"random": gnp,
		"path":   graph.Path(257),
		"star":   graph.Star(100),
	}
}

func workerCounts() []int {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) < 3 {
		counts = append(counts, 5) // always exercise a multi-chunk partition
	}
	return counts
}

func sameResult(t *testing.T, label string, want, got *local.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Outputs, got.Outputs) {
		t.Errorf("%s: Outputs differ", label)
	}
	if !reflect.DeepEqual(want.HaltRounds, got.HaltRounds) {
		t.Errorf("%s: HaltRounds differ: %v vs %v", label, want.HaltRounds, got.HaltRounds)
	}
	if want.Rounds != got.Rounds {
		t.Errorf("%s: Rounds %d vs %d", label, want.Rounds, got.Rounds)
	}
	if want.Messages != got.Messages {
		t.Errorf("%s: Messages %d vs %d", label, want.Messages, got.Messages)
	}
	if want.Steps != got.Steps {
		t.Errorf("%s: Steps %d vs %d", label, want.Steps, got.Steps)
	}
}

// TestEngineDeterministicAcrossWorkerCounts checks the acceptance criterion
// verbatim: sequential and parallel runs at worker counts 1, 2 and
// GOMAXPROCS produce identical Outputs, HaltRounds, Rounds and Messages on
// random, path and star graphs, for a message- and randomness-sensitive
// algorithm, and match the pre-refactor engine.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	algos := map[string]local.Algorithm{
		"waves":       waveAlgo(7, 4),
		"random-halt": randHaltAlgo(),
	}
	for gname, g := range testGraphs(t) {
		for aname, a := range algos {
			ref, err := local.Run(g, a, local.Options{Seed: 3, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := runLegacy(g, a, local.Options{Seed: 3, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, gname+"/"+aname+"/legacy", legacy, ref)
			for _, w := range workerCounts() {
				par, err := local.Run(g, a, local.Options{Seed: 3, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s/%s/workers=%d", gname, aname, w), ref, par)
			}
		}
	}
}

// randHaltAlgo couples per-node randomness to the halt schedule: any
// cross-worker leakage of RNG streams or round skew changes the outputs.
func randHaltAlgo() local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "rand-halt",
		NewNode: func(info local.Info) local.Node {
			return &randHaltNode{info: info, haltAt: 1 + int(info.Rand.Uint64()%11)}
		},
	}
}

type randHaltNode struct {
	info   local.Info
	haltAt int
	mix    uint64
}

func (n *randHaltNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for _, m := range recv {
		if v, ok := m.(uint64); ok {
			n.mix ^= v + uint64(r)
		}
	}
	if r >= n.haltAt {
		return nil, true
	}
	return local.Broadcast(n.info.Rand.Uint64(), n.info.Degree), false
}

func (n *randHaltNode) Output() any { return n.mix }

// TestEngineFrontierStaggeredWaves pins the frontier bookkeeping against a
// closed form: node u hears neighbour v exactly min(halt(u), halt(v)) times
// (v broadcasts in rounds 0..halt(v)-1, u reads in rounds 1..halt(u)), so
// any node the frontier drops early, steps after halting, or feeds a stale
// lane slot shifts the per-node (sum, count) certificate.
func TestEngineFrontierStaggeredWaves(t *testing.T) {
	const waves, gap = 7, 4
	a := waveAlgo(waves, gap)
	for gname, g := range testGraphs(t) {
		for _, w := range workerCounts() {
			res, err := local.Run(g, a, local.Options{Seed: 1, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			var wantMsgs int64
			for u := 0; u < g.N(); u++ {
				hu := waveHalt(g.ID(u), waves, gap)
				var sum, count int64
				for k := 0; k < g.Degree(u); k++ {
					v := g.Neighbor(u, k)
					hv := waveHalt(g.ID(v), waves, gap)
					times := int64(min(hu, hv))
					sum += g.ID(v) * times
					count += times
				}
				// Every broadcast of u is delivered (even to already-halted
				// neighbours), so u sends deg(u) messages per round.
				wantMsgs += int64(hu) * int64(g.Degree(u))
				got := res.Outputs[u].([3]int64)
				want := [3]int64{sum, count, int64(hu)}
				if got != want {
					t.Fatalf("%s/workers=%d: node %d certificate %v, want %v", gname, w, u, got, want)
				}
				if res.HaltRounds[u] != hu {
					t.Fatalf("%s/workers=%d: node %d halted at %d, want %d", gname, w, u, res.HaltRounds[u], hu)
				}
			}
			if res.Messages != wantMsgs {
				t.Errorf("%s/workers=%d: Messages = %d, want %d", gname, w, res.Messages, wantMsgs)
			}
		}
	}
}

// TestEngineParallelErrorPropagation checks that an oversized send surfaces
// as an error from the pooled path too.
func TestEngineParallelErrorPropagation(t *testing.T) {
	bad := local.AlgorithmFunc{
		AlgoName: "bad-send",
		NewNode: func(info local.Info) local.Node {
			return badSendNode{deg: info.Degree}
		},
	}
	g := graph.Path(64)
	if _, err := local.Run(g, bad, local.Options{Workers: 4}); err == nil {
		t.Fatal("oversized send not rejected in parallel mode")
	}
}

type badSendNode struct{ deg int }

func (n badSendNode) Round(int, []local.Message) ([]local.Message, bool) {
	return make([]local.Message, n.deg+1), true
}
func (n badSendNode) Output() any { return nil }

// TestEngineMaxRoundsParallel checks the round cap with a live frontier in
// pooled mode.
func TestEngineMaxRoundsParallel(t *testing.T) {
	forever := local.AlgorithmFunc{
		AlgoName: "forever",
		NewNode: func(info local.Info) local.Node {
			return foreverNode{}
		},
	}
	_, err := local.Run(graph.Star(32), forever, local.Options{MaxRounds: 40, Workers: 3})
	if !errors.Is(err, local.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

type foreverNode struct{}

func (foreverNode) Round(int, []local.Message) ([]local.Message, bool) { return nil, false }
func (foreverNode) Output() any                                        { return nil }
