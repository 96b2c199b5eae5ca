package lift_test

import (
	"testing"

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
// through the line lift) on the matching-geometric-dense host, against the
// same matching over the frozen map-based lift.
func BenchmarkLineLift(b *testing.B) {
	g := benchHost(b)
	p := engines.GraphParams(g)
	for _, bc := range []struct {
		name string
		algo local.Algorithm
	}{
		{"flat", matching.New(p.Delta, p.M)},
		{"legacy", legacyMatching(p.Delta, p.M)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for b.Loop() {
				res, err := local.Run(g, bc.algo, local.Options{Seed: 1, Sequential: true})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
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
// steady state a host node-round allocates the item arena and the bundle
// slice and nothing else. Setup and teardown cancel out of the difference
// between a short and a long run. The map-based lift costs several times
// more (its per-round maps, inboxes and send slices).
func TestLineLiftSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	g, err := graph.RandomGeometric(96, 0.18, 3)
	if err != nil {
		t.Fatal(err)
	}
	const short, long = 4, 12
	perNodeRound := func(line func(local.Algorithm, func(a, b int64) any) local.Algorithm) float64 {
		allocs := func(rounds int) float64 {
			algo := line(chatter(rounds), nil)
			return testing.AllocsPerRun(5, func() {
				if _, err := local.Run(g, algo, local.Options{Seed: 1, Sequential: true}); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Each virtual round costs two host rounds.
		return (allocs(long) - allocs(short)) / float64(2*(long-short)*g.N())
	}
	flat := perNodeRound(lift.LineGraph)
	legacy := perNodeRound(lift.LegacyLineGraph)
	t.Logf("allocs per host node-round: flat %.2f, legacy %.2f", flat, legacy)
	if flat > 2.05 {
		t.Errorf("line lift allocates %.2f per host node-round; the budget is 2 (item arena + bundle slice)", flat)
	}
}
