package lift_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/local"
)

func benchLift(b *testing.B, g *graph.Graph, algo local.Algorithm) {
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

// BenchmarkPowerLift runs Luby's MIS on G^2 through the power lift on the
// rulingset-smallworld host: a Watts–Strogatz small world (n=512, k=8,
// β=0.2, seed 7).
func BenchmarkPowerLift(b *testing.B) {
	g, err := graph.WattsStrogatz(512, 8, 0.2, 7)
	if err != nil {
		b.Fatal(err)
	}
	benchLift(b, g, lift.Power(2, luby.New()))
}

// BenchmarkProductLift runs Luby's MIS on G × K_{deg+1} through the product
// lift on the deg-coloring-hypercube-dense host: the 9-dimensional
// hypercube under a dense identity permutation (seed 6).
func BenchmarkProductLift(b *testing.B) {
	g, err := graph.Hypercube(9)
	if err != nil {
		b.Fatal(err)
	}
	if g, err = graph.WithShuffledIDs(g, int64(g.N()), 6); err != nil {
		b.Fatal(err)
	}
	benchLift(b, g, lift.Product(luby.New()))
}

// liftAllocsPerNodeRound returns the steady-state allocations per host
// node-round of wrap(chatter) on g, where one virtual round costs
// hostRounds host rounds. Setup, teardown and the buffers' first growth
// cancel out of the difference between a short and a long run.
func liftAllocsPerNodeRound(t *testing.T, g *graph.Graph, wrap func(local.Algorithm) local.Algorithm, hostRounds int) float64 {
	t.Helper()
	const short, long = 4, 12
	allocs := func(rounds int) float64 {
		algo := wrap(chatter(rounds))
		return testing.AllocsPerRun(5, func() {
			if _, err := local.Run(g, algo, local.Options{Seed: 1, Sequential: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (allocs(long) - allocs(short)) / float64(hostRounds*(long-short)*g.N())
}

// TestPowerLiftSteadyStateAllocs pins the power lift's per-round
// allocations: in steady state a host node-round allocates nothing, because
// the flood records, the payload buffers, the inner inbox and the send slice
// are all reused.
func TestPowerLiftSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	g, err := graph.RandomGeometric(96, 0.18, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		power := func(a local.Algorithm) local.Algorithm { return lift.Power(k, a) }
		got := liftAllocsPerNodeRound(t, g, power, k)
		t.Logf("k=%d: %.2f allocs per host node-round", k, got)
		if got > 0.05 {
			t.Errorf("power lift (k=%d) allocates %.2f per host node-round; the budget is 0 (every buffer is reused)", k, got)
		}
	}
}

// TestProductLiftSteadyStateAllocs pins the product lift's per-round
// allocations: the copy inboxes are double-buffered and the bundles live in
// two arenas used by host-step parity, so a host node-round allocates
// nothing in steady state.
func TestProductLiftSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	g, err := graph.RandomGeometric(96, 0.18, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := liftAllocsPerNodeRound(t, g, lift.Product, 1)
	t.Logf("%.2f allocs per host node-round", got)
	if got > 0.05 {
		t.Errorf("product lift allocates %.2f per host node-round; the budget is 0 (every buffer is reused)", got)
	}
}

// TestPowerLiftInComposeMatchesExplicitPower runs Power(3, ·) as a Compose
// stage under staggered wake-up, where a node may run up to the wake-up
// skew ahead of a neighbour. A payload buffer is read up to three hops
// away, so it must survive six of its owner's steps; the outputs must still
// equal the direct run on the explicit G^3.
func TestPowerLiftInComposeMatchesExplicitPower(t *testing.T) {
	const k = 3
	for name, g := range lineHosts(t, quickN(80)) {
		pg, err := graphtest.Power(g, k)
		if err != nil {
			t.Fatal(err)
		}
		algo := colormis.New(pg.MaxDegree(), max(pg.MaxIDValue(), 1))
		direct, err := local.Run(pg, algo, local.Options{})
		if err != nil {
			t.Fatal(err)
		}
		staged := local.StaggeredWakeup(local.Compose("power3", local.Stage{Algo: lift.Power(k, algo)}), 5, 6)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				// The cap, twice the lockstep bound plus the wake-up skew,
				// makes a broken lift fail fast instead of running to the
				// engine's default cap.
				opts := local.Options{Seed: 3, Workers: workers, MaxRounds: 2*(k*direct.Rounds+2*k) + 16}
				lifted, err := local.Run(g, staged, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(direct.Outputs, lifted.Outputs) {
					t.Fatal("composed power lift outputs differ from the direct run on G^3")
				}
			})
		}
	}
}
