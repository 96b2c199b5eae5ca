package engines

import (
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/arbmis"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func suite(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gnp, err := graph.GNP(100, 0.05, 77)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := graph.Cycle(24)
	return map[string]*graph.Graph{
		"path":   graph.Path(40),
		"cycle":  cyc,
		"star":   graph.Star(25),
		"clique": graph.Complete(10),
		"gnp":    gnp,
		"forest": graph.ForestUnion(70, 2, 5),
	}
}

func runBools(t *testing.T, g *graph.Graph, a local.Algorithm, seed int64) ([]bool, int) {
	t.Helper()
	res, err := local.Run(g, a, local.Options{Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	bs, err := problems.Bools(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	return bs, res.Rounds
}

// newUniform builds r's uniform algorithm at argument k.
func newUniform(t *testing.T, r Row, k int) local.Algorithm {
	t.Helper()
	a, err := r.New(k)
	if err != nil {
		t.Fatalf("%s: %v", r.UniformName, err)
	}
	return a
}

func TestAllMISEnginesProduceValidMIS(t *testing.T) {
	algos := map[string]local.Algorithm{}
	for _, r := range Rows {
		if r.Problem == MIS {
			algos[r.UniformName] = newUniform(t, r, 0)
		}
	}
	// Theorem 3 derives the arboricity row's uniform algorithm with
	// Λ = {n, m}, the arboricity weakly dominated by n (a <= n).
	seq := core.Product(
		core.Additive(arbmis.BoundLayers),
		core.Additive(arbmis.BoundA, arbmis.BoundM), // a replaced by its dominator
	)
	t3, err := core.UniformWeaklyDominated(RowMISArb.NonUniform(0),
		[]core.Param{core.ParamN, core.ParamN, core.ParamMaxID},
		[]core.Domination{{Param: core.ParamArboricity, ByIndex: 1, G: func(x int) int { return x }}},
		seq, core.MISPruner())
	if err != nil {
		t.Fatal(err)
	}
	algos["uniform-mis-arb-theorem3"] = t3
	for gname, g := range suite(t) {
		for aname, a := range algos {
			in, _ := runBools(t, g, a, 13)
			if err := problems.ValidMIS(g, in); err != nil {
				t.Errorf("%s on %s: %v", aname, gname, err)
			}
		}
	}
}

func TestNonUniformBaselines(t *testing.T) {
	for gname, g := range suite(t) {
		for _, r := range Rows {
			if r.Problem != MIS || r.BaselineName == "" {
				continue
			}
			in, _ := runBools(t, g, r.NonUniform(0).Build(GraphParams(g)), 3)
			if err := problems.ValidMIS(g, in); err != nil {
				t.Errorf("%s on %s: %v", r.BaselineName, gname, err)
			}
		}
	}
}

// runRow runs a on g and checks the outputs with check.
func runRow(t *testing.T, name string, g *graph.Graph, a local.Algorithm, seed int64, check func([]any) error) {
	t.Helper()
	res, err := local.Run(g, a, local.Options{Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := check(res.Outputs); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestUniformMatchingRow(t *testing.T) {
	uniform := newUniform(t, RowMatching, 0)
	for gname, g := range suite(t) {
		runRow(t, gname, g, uniform, 5, func(out []any) error { return RowMatching.CheckUniform(g, 0, out) })
	}
}

func TestNonUniformMatchingBaseline(t *testing.T) {
	for gname, g := range suite(t) {
		p := GraphParams(g)
		runRow(t, gname, g, RowMatching.NonUniform(0).Build(p), 5, func(out []any) error { return RowMatching.CheckBaseline(g, 0, p, out) })
	}
}

func TestLasVegasRulingSetRow(t *testing.T) {
	g, err := graph.GNP(90, 0.06, 81)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []int{1, 2} {
		lv := newUniform(t, RowRulingSet, beta)
		for seed := int64(0); seed < 2; seed++ {
			runRow(t, fmt.Sprintf("β=%d seed %d", beta, seed), g, lv, seed,
				func(out []any) error { return RowRulingSet.CheckUniform(g, beta, out) })
		}
	}
}

// TestColoringRows runs the vertex-coloring rows' uniform algorithms (the
// λ row at λ = 3) under their checkers, palette bounds included.
func TestColoringRows(t *testing.T) {
	for _, r := range Rows {
		if r.Problem != Coloring {
			continue
		}
		k := 0
		if r.Arg == ArgLambda {
			k = 3
		}
		a := newUniform(t, r, k)
		for gname, g := range suite(t) {
			runRow(t, r.UniformName+" on "+gname, g, a, 7, func(out []any) error { return r.CheckUniform(g, k, out) })
		}
	}
}

func TestEdgeColoringRows(t *testing.T) {
	for gname, g := range suite(t) {
		p := GraphParams(g)
		runRow(t, "non-uniform "+gname, g, RowEdgeColoring.NonUniform(0).Build(p), 0,
			func(out []any) error { return RowEdgeColoring.CheckBaseline(g, 0, p, out) })
	}
	g, err := graph.GNP(60, 0.06, 99)
	if err != nil {
		t.Fatal(err)
	}
	runRow(t, "uniform", g, newUniform(t, RowEdgeColoring, 0), 3,
		func(out []any) error { return RowEdgeColoring.CheckUniform(g, 0, out) })
}

// TestRowBudgets checks the contract Theorem1Plan states for every row
// that declares its exact running time: each guess vector v of
// Seq().Sets(2^i) runs within C()·2^i rounds. The ruling-set row is checked
// at β = 1, 2 and 3.
func TestRowBudgets(t *testing.T) {
	for _, r := range Rows {
		if r.Rounds == nil {
			t.Logf("%s: no exact Rounds declared, skipped", r.UniformName)
			continue
		}
		ks := []int{0}
		if r.Arg == ArgBeta {
			ks = []int{1, 2, 3}
		}
		for _, k := range ks {
			nu, seq := r.NonUniform(k), r.Seq(k)
			worst := 0.0
			for i := 1; i <= 30; i++ {
				budget := seq.C() << i
				for _, v := range seq.Sets(1 << i) {
					rounds := r.Rounds(k, core.ParamsFromVector(nu.Needs, v))
					if rounds > budget {
						t.Errorf("%s (k=%d): guesses %v run %d rounds, over the budget C·2^%d = %d", r.UniformName, k, v, rounds, i, budget)
					}
					worst = max(worst, float64(rounds)/float64(budget))
				}
			}
			t.Logf("%s (k=%d): worst rounds/budget %.3f", r.UniformName, k, worst)
		}
	}
}
