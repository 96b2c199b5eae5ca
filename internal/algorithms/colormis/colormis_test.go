package colormis

import (
	"testing"
	"testing/quick"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func TestColorMISOnSuites(t *testing.T) {
	cyc, _ := graph.Cycle(23)
	gnp, err := graph.GNP(200, 0.035, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := graph.RandomRegular(100, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"path":    graph.Path(40),
		"cycle":   cyc,
		"clique":  graph.Complete(15),
		"star":    graph.Star(33),
		"grid":    graph.Grid(9, 9),
		"gnp":     gnp,
		"regular": reg,
		"empty":   graphtest.Empty(6),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			d, m := g.MaxDegree(), max64(g.MaxIDValue(), 1)
			res, err := local.Run(g, New(d, m), local.Options{})
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
			if bound := Rounds(d, m); res.Rounds > bound {
				t.Errorf("rounds %d exceed bound %d", res.Rounds, bound)
			}
			if env := BoundDelta(d) + BoundM(int(m)); res.Rounds > env {
				t.Errorf("rounds %d exceed additive envelope %d", res.Rounds, env)
			}
		})
	}
}

func TestColorMISGoodOverestimates(t *testing.T) {
	g, err := graph.GNP(100, 0.06, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Any good (over-)guess must stay correct and within the envelope at the
	// guessed values — this is the transformer's budget contract.
	for _, dMult := range []int{1, 3} {
		for _, mMult := range []int64{1, 100} {
			d := g.MaxDegree() * dMult
			m := g.MaxIDValue() * mMult
			res, err := local.Run(g, New(d, m), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			in, err := problems.Bools(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := problems.ValidMIS(g, in); err != nil {
				t.Fatalf("d×%d m×%d: %v", dMult, mMult, err)
			}
			if env := BoundDelta(d) + BoundM(int(m)); res.Rounds > env {
				t.Errorf("d×%d m×%d: rounds %d exceed envelope %d", dMult, mMult, res.Rounds, env)
			}
		}
	}
}

func TestColorMISBadGuessTerminates(t *testing.T) {
	g := graph.Complete(20)
	res, err := local.Run(g, New(2, 5), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if env := BoundDelta(2) + BoundM(5); res.Rounds > env {
		t.Errorf("bad-guess rounds %d exceed envelope %d", res.Rounds, env)
	}
}

func TestColorMISProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, err := graph.GNP(50, 0.1, seed)
		if err != nil {
			return false
		}
		res, err := local.Run(g, New(g.MaxDegree(), g.MaxIDValue()), local.Options{})
		if err != nil {
			return false
		}
		in, err := problems.Bools(res.Outputs)
		if err != nil {
			return false
		}
		return problems.ValidMIS(g, in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestColorMISAllocsPerNode pins the composed coloring's allocations: a
// node allocates its state machines and their send slices once per stage,
// and nothing per round or per neighbour (Linial's digit vectors and
// broadcast, the batched passes' taken set and Compose's envelopes are
// all reused). Under the same guesses, and so the same stages, a dense
// graph must cost no more allocations per node than a sparse one.
func TestColorMISAllocsPerNode(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const n, deltaHat, mHat = 256, 48, 256
	perNode := func(avgDeg float64) float64 {
		g, err := graph.GNP(n, avgDeg/(n-1), 3)
		if err != nil {
			t.Fatal(err)
		}
		if g.MaxDegree() > deltaHat {
			t.Fatalf("max degree %d above the guess %d", g.MaxDegree(), deltaHat)
		}
		algo := New(deltaHat, mHat)
		return testing.AllocsPerRun(3, func() {
			if _, err := local.Run(g, algo, local.Options{Seed: 1, Sequential: true}); err != nil {
				t.Fatal(err)
			}
		}) / n
	}
	sparse, dense := perNode(8), perNode(24)
	t.Logf("%.2f allocs per node at average degree 8, %.2f at 24", sparse, dense)
	if dense-sparse > 0.5 {
		t.Errorf("a node allocates %.2f more at average degree 24 than at 8; the budget is 0 (per-neighbour state is reused)", dense-sparse)
	}
}
