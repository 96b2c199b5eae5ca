package lift_test

import (
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/algorithms/matching"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// benchHost is the host of the matching-geometric-dense scenario: a
// unit-disk graph (n=512, r=0.07, seed 2) under a dense identity
// permutation (seed 4).
func benchHost(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := graph.RandomGeometric(512, 0.07, 2)
	if err != nil {
		tb.Fatal(err)
	}
	g, err = graph.WithShuffledIDs(g, int64(g.N()), 4)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkLineLift runs the non-uniform matching baseline (colormis
// through the line lift) on the matching-geometric-dense host.
func BenchmarkLineLift(b *testing.B) {
	g := benchHost(b)
	p := engines.GraphParams(g)
	algo := matching.New(p.Delta, p.M)
	b.ReportAllocs()
	var steps int64
	for b.Loop() {
		res, err := local.Run(g, algo, local.Options{Seed: 1, Sequential: true})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// chatter sends one message to every neighbour for rounds rounds, then
// terminates. It allocates nothing per round, so a lifted run's per-round
// allocations are the lift's own.
type chatterNode struct {
	rounds int
	send   []local.Message
}

var chatterMsg local.Message = "hi"

func (c *chatterNode) Round(r int, _ []local.Message) ([]local.Message, bool) {
	return c.send, r+1 >= c.rounds
}

func (c *chatterNode) Output() any { return nil }

func chatter(rounds int) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "chatter",
		NewNode: func(info local.Info) local.Node {
			return &chatterNode{rounds: rounds, send: local.Broadcast(chatterMsg, info.Degree)}
		},
	}
}

// TestLineLiftSteadyStateAllocs pins the lift's per-round allocations: in
// steady state a host node-round allocates nothing, because each phase
// rewrites its own bundle and item arena two steps after sending from it.
// Setup, teardown and the arenas' first growth cancel out of the difference
// between a short and a long run. The map-based lift it replaced allocated
// about 30 objects per host node-round (its per-round maps, inboxes and
// send slices).
func TestLineLiftSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	g, err := graph.RandomGeometric(96, 0.18, 3)
	if err != nil {
		t.Fatal(err)
	}
	const short, long = 4, 12
	allocs := func(rounds int) float64 {
		algo := lift.LineGraph(chatter(rounds), nil)
		return testing.AllocsPerRun(5, func() {
			if _, err := local.Run(g, algo, local.Options{Seed: 1, Sequential: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Each virtual round costs two host rounds.
	got := (allocs(long) - allocs(short)) / float64(2*(long-short)*g.N())
	t.Logf("%.2f allocs per host node-round", got)
	if got > 0.05 {
		t.Errorf("line lift allocates %.2f per host node-round; the budget is 0 (both phase arenas are reused)", got)
	}
}

// TestLineLiftArenasPinNothing runs the matching baseline, whose traffic
// shrinks as edges terminate, and checks that no arena slot past a round's
// use still holds a bundle or an item: reused arenas must not pin payloads
// or outputs that were sent two steps ago.
func TestLineLiftArenasPinNothing(t *testing.T) {
	g, err := graph.RandomGeometric(96, 0.18, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]local.Options{"sequential": {Seed: 1, Sequential: true}, "4 workers": {Seed: 1, Workers: 4}} {
		var stats lift.ArenaStats
		if _, err := local.Run(g, lift.LineGraphArenaProbe(&stats, colormis.New(lineGuesses(g))), opts); err != nil {
			t.Fatal(err)
		}
		if stats.Shrinks.Load() == 0 {
			t.Fatalf("%s: no arena ever shrank; the check is vacuous", name)
		}
		if n := stats.Stale.Load(); n > 0 {
			t.Errorf("%s: %d stale arena slots past the round's use (%d shrinking node-rounds)", name, n, stats.Shrinks.Load())
		}
	}
}
