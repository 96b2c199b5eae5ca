package arbmis

import (
	"testing"
	"testing/quick"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func TestArbMISOnSparseSuites(t *testing.T) {
	cyc, _ := graph.Cycle(30)
	graphs := map[string]struct {
		g *graph.Graph
		a int
	}{
		"path":    {graph.Path(50), 1},
		"cycle":   {cyc, 2},
		"tree":    {graph.RandomTree(120, 5), 1},
		"star":    {graph.Star(60), 1},
		"forest2": {graph.ForestUnion(100, 2, 7), 2},
		"forest3": {graph.ForestUnion(100, 3, 8), 3},
		"grid":    {graph.Grid(9, 9), 2},
		"empty":   {graphtest.Empty(5), 1},
	}
	for name, tc := range graphs {
		t.Run(name, func(t *testing.T) {
			g := tc.g
			n := max(g.N(), 1)
			m := max(int(g.MaxIDValue()), 1)
			res, err := local.Run(g, New(tc.a, n, int64(m)), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			in, err := problems.Bools(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := problems.ValidMIS(g, in); err != nil {
				t.Fatal(err)
			}
			if bound := Rounds(tc.a, n, int64(m)); res.Rounds > bound {
				t.Errorf("rounds %d exceed exact schedule %d", res.Rounds, bound)
			}
			env := (BoundLayers(n)) * (BoundA(tc.a) + BoundM(m))
			if res.Rounds > env {
				t.Errorf("rounds %d exceed product envelope %d", res.Rounds, env)
			}
		})
	}
}

func TestArbMISOverestimatedGuesses(t *testing.T) {
	g := graph.ForestUnion(80, 2, 3)
	for _, aMult := range []int{1, 2, 5} {
		res, err := local.Run(g, New(2*aMult, g.N()*3, g.MaxIDValue()*7), local.Options{})
		if err != nil {
			t.Fatal(err)
		}
		in, err := problems.Bools(res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := problems.ValidMIS(g, in); err != nil {
			t.Fatalf("a×%d: %v", aMult, err)
		}
	}
}

func TestArbMISBadArboricityTerminates(t *testing.T) {
	// A clique has arboricity ~n/2; guessing ã=1 starves the peeling. The
	// run must halt within its schedule; the output is garbage by design.
	g := graph.Complete(24)
	res, err := local.Run(g, New(1, g.N(), g.MaxIDValue()), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bound := Rounds(1, g.N(), g.MaxIDValue()); res.Rounds > bound {
		t.Errorf("bad-guess run %d rounds exceeds schedule %d", res.Rounds, bound)
	}
	in, err := problems.Bools(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if problems.ValidMIS(g, in) == nil {
		t.Log("note: bad guess happened to produce a valid MIS (allowed)")
	}
}

func TestArbMISBadNTerminates(t *testing.T) {
	// Too few peeling rounds: some nodes stay unlayered and output false.
	g := graph.RandomTree(200, 9)
	res, err := local.Run(g, New(1, 2, g.MaxIDValue()), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bound := Rounds(1, 2, g.MaxIDValue()); res.Rounds > bound {
		t.Errorf("rounds %d exceed schedule %d", res.Rounds, bound)
	}
}

func TestArbMISProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%3) + 1
		g := graph.ForestUnion(50, k, seed)
		res, err := local.Run(g, New(k, g.N(), g.MaxIDValue()), local.Options{Seed: seed})
		if err != nil {
			return false
		}
		in, err := problems.Bools(res.Outputs)
		if err != nil {
			return false
		}
		return problems.ValidMIS(g, in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestArbMISFasterThanDeltaOnStars(t *testing.T) {
	// The defining advantage of the arboricity engine: on a star (a = 1,
	// Δ = n-1) its O(log n (ã log ã + log* m̃)) schedule beats any Ω(Δ)
	// algorithm once n is large enough. The Δ/3 margin needs n ≈ 4000 (the
	// schedule plateaus near 920 rounds); -short keeps the assertion with a
	// Δ/2 margin at half the size.
	n, margin := 4000, 3
	if testing.Short() {
		n, margin = 2500, 2
	}
	g := graph.Star(n)
	res, err := local.Run(g, New(1, g.N(), g.MaxIDValue()), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problems.Bools(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := problems.ValidMIS(g, in); err != nil {
		t.Fatal(err)
	}
	if res.Rounds > g.MaxDegree()/margin {
		t.Errorf("arboricity MIS on a star took %d rounds (should be ≪ Δ = %d)", res.Rounds, g.MaxDegree())
	}
}
