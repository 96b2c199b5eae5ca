package problems_test

// The greedy reference solvers live in graphtest, which builds EdgeClaims and
// so imports this package; the tests that check them, or use them as
// fixtures, are external for that reason.

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/problems"
)

func TestGreedyMISIsValid(t *testing.T) {
	f := func(seed int64) bool {
		g, err := graph.GNP(40, 0.15, seed)
		if err != nil {
			return false
		}
		return problems.ValidMIS(g, graphtest.GreedyMIS(g)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMISEquivalentToRuling21(t *testing.T) {
	f := func(seed int64) bool {
		g, err := graph.GNP(30, 0.12, seed)
		if err != nil {
			return false
		}
		in := graphtest.GreedyMIS(g)
		return (problems.ValidMIS(g, in) == nil) == (problems.ValidRulingSet(g, in, 2, 1) == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGreedyColoringIsValid(t *testing.T) {
	g, err := graph.GNP(50, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	colors := graphtest.GreedyColoring(g)
	if err := problems.ValidColoring(g, colors, g.MaxDegree()+1); err != nil {
		t.Error(err)
	}
}

func TestGreedyMatchingIsMaximal(t *testing.T) {
	g, err := graph.GNP(40, 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := problems.ValidMaximalMatching(g, graphtest.GreedyMatching(g)); err != nil {
		t.Error(err)
	}
}

// TestGreedySolversAgainstEnumeration cross-checks the reference solvers on
// random tiny graphs: a greedy MIS must be among the enumerated valid sets,
// and a greedy matching must pass the enumerated maximality predicate.
func TestGreedySolversAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 50; trial++ {
		g, err := graph.GNP(7, 0.3+0.4*rng.Float64(), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if err := problems.ValidMIS(g, graphtest.GreedyMIS(g)); err != nil {
			t.Fatalf("trial %d: greedy MIS invalid: %v", trial, err)
		}
		if err := problems.ValidMaximalMatching(g, graphtest.GreedyMatching(g)); err != nil {
			t.Fatalf("trial %d: greedy matching invalid: %v", trial, err)
		}
	}
}
