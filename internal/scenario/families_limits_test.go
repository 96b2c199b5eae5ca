package scenario

// Admission-estimator tests: ApproxNodes/ApproxEdges back the serving
// layer's per-request work bounds, so they must never wrap negative on
// client-controlled dimensions — an overflowed (negative) estimate would
// pass every "estimate > limit" check and let an absurd request through.

import (
	"math"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
)

func TestApproxSizesSaneOnCommittedShapes(t *testing.T) {
	for _, tc := range []struct {
		gs    GraphSpec
		nodes int
		edges int
	}{
		{GraphSpec{Family: "cycle", N: 1024}, 1024, 1024},
		{GraphSpec{Family: "clique", N: 100}, 100, 4950},
		{GraphSpec{Family: "grid", Rows: 8, Cols: 16}, 128, 256},
		{GraphSpec{Family: "hypercube", D: 10}, 1024, 5120},
		{GraphSpec{Family: "caterpillar", N: 10, K: 3}, 40, 40 * 3},
		{GraphSpec{Family: "lollipop", N: 64, K: 32}, 96, 64*63/2 + 32},
		{GraphSpec{Family: "regular", N: 1000, D: 4}, 1000, 2000},
	} {
		if got := tc.gs.ApproxNodes(); got != tc.nodes {
			t.Errorf("%s: ApproxNodes = %d, want %d", tc.gs, got, tc.nodes)
		}
		if got := tc.gs.ApproxEdges(); got != tc.edges {
			t.Errorf("%s: ApproxEdges = %d, want %d", tc.gs, got, tc.edges)
		}
	}
	// gnp's estimate is the expected 4995 edges plus a deviation margin:
	// pin only the magnitude.
	gnp := GraphSpec{Family: "gnp", N: 1000, P: 0.01}
	if e := gnp.ApproxEdges(); e < 4000 || e > 6000 {
		t.Errorf("gnp estimate %d implausible for n=1000 p=0.01", e)
	}
}

// TestRandomFamilyEdgeBounds builds the random families over a sweep of
// seeds and requires every built graph to stay within ApproxEdges: the
// estimate is an admission bound, so a seed that exceeds it lets a request
// allocate more than the server admitted.
func TestRandomFamilyEdgeBounds(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for _, shape := range []GraphSpec{
		{Family: "gnp", N: 64, P: 0.05},
		{Family: "gnp", N: 1000, P: 0.01},
		{Family: "geometric", N: 64, Radius: 0.1},
		{Family: "geometric", N: 1000, Radius: 0.05},
		{Family: "huge-geometric", N: 64, D: 4},
		{Family: "huge-geometric", N: 1000, D: 8},
	} {
		bound, most := shape.ApproxEdges(), 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			gs := shape
			gs.Seed = seed
			g, err := gs.Build(graph.NewCorpus())
			if err != nil {
				t.Fatalf("%s: %v", gs, err)
			}
			if g.NumEdges() > bound {
				t.Errorf("%s: built %d edges, above the estimate %d", gs, g.NumEdges(), bound)
			}
			most = max(most, g.NumEdges())
		}
		t.Logf("%s: estimate %d, most edges over %d seeds %d", shape, bound, seeds, most)
	}
}

// TestApproxSizesNeverNegative hammers the estimators with adversarial
// dimensions (the overflow shapes: rows*cols past MaxInt, k+1 wrapping,
// clique n² overflow) and requires saturation, never wraparound.
func TestApproxSizesNeverNegative(t *testing.T) {
	huge := int(math.MaxInt)
	adversarial := []GraphSpec{
		{Family: "grid", Rows: 3037000500, Cols: 3037000500},
		{Family: "torus", Rows: huge, Cols: 2},
		{Family: "caterpillar", N: 1 << 31, K: huge},
		{Family: "caterpillar", N: huge, K: huge},
		{Family: "lollipop", N: huge, K: huge},
		{Family: "clique", N: huge},
		{Family: "clique", N: 1 << 32},
		{Family: "regular", N: huge, D: huge},
		{Family: "ba", N: huge, K: huge},
		{Family: "smallworld", N: huge, K: huge},
		{Family: "gnp", N: huge, P: 1},
		{Family: "geometric", N: huge, Radius: 1},
		{Family: "hypercube", D: 63},
		{Family: "hypercube", D: -1}, // negative shift must not panic
		{Family: "path", N: -5},      // totality on nonsense input
	}
	for _, gs := range adversarial {
		if n := gs.ApproxNodes(); n < 0 {
			t.Errorf("%s: ApproxNodes wrapped to %d", gs, n)
		}
		if e := gs.ApproxEdges(); e < 0 {
			t.Errorf("%s: ApproxEdges wrapped to %d", gs, e)
		}
	}
	// The canonical DoS shapes must saturate high enough that any sane
	// limit rejects them.
	if n := (GraphSpec{Family: "grid", Rows: 3037000500, Cols: 3037000500}).ApproxNodes(); n < 1<<40 {
		t.Errorf("overflowing grid reports only %d nodes", n)
	}
	if n := (GraphSpec{Family: "caterpillar", N: 1 << 31, K: huge}).ApproxNodes(); n < 1<<40 {
		t.Errorf("overflowing caterpillar reports only %d nodes", n)
	}
}
