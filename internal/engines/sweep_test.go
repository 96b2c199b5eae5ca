package engines_test

import (
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
	"github.com/unilocal/unilocal/internal/scenario"
	sweeppkg "github.com/unilocal/unilocal/internal/sweep"
)

// sweepSizes returns the full size sweep, or the reduced one under -short
// (the shapes and assertions are identical; only the largest instances
// shrink).
func sweepSizes(full, short []int) []int {
	if testing.Short() {
		return short
	}
	return full
}

// testCorpus caches the sweep topologies across this file's tests.
var testCorpus = graph.NewCorpus()

// build fetches gs's graph from testCorpus.
func build(t *testing.T, gs scenario.GraphSpec) *graph.Graph {
	t.Helper()
	g, err := gs.Build(testCorpus)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newUniform builds r's uniform algorithm at argument k.
func newUniform(t *testing.T, r engines.Row, k int) local.Algorithm {
	t.Helper()
	a, err := r.New(k)
	if err != nil {
		t.Fatalf("%s: %v", r.UniformName, err)
	}
	return a
}

// TestRatioFlatAcrossSizes is the headline reproduction claim in test form:
// for every row with a baseline (at λ = β = 1), the uniform/non-uniform
// round ratio must not grow with n (measured over a 16x sweep on
// bounded-degree graphs). The whole sweep runs as one scheduler batch, the
// same way cmd/localbench submits it.
func TestRatioFlatAcrossSizes(t *testing.T) {
	var graphs []*graph.Graph
	for _, n := range sweepSizes([]int{128, 512, 2048}, []int{64, 256, 1024}) {
		graphs = append(graphs, build(t, scenario.GraphSpec{Family: "regular", N: n, D: 4, Seed: int64(n)}))
	}
	var rows []engines.Row
	var jobs []sweeppkg.Job
	for _, r := range engines.Rows {
		if r.BaselineName == "" {
			continue
		}
		rows = append(rows, r)
		uniform := newUniform(t, r, 1)
		for _, g := range graphs {
			baseline := r.NonUniform(1).Build(engines.GraphParams(g))
			jobs = append(jobs,
				sweeppkg.Job{Label: fmt.Sprintf("%s/n=%d", r.UniformName, g.N()), Graph: g,
					Algo: func() local.Algorithm { return uniform }, Seed: 1},
				sweeppkg.Job{Label: fmt.Sprintf("%s/n=%d", r.BaselineName, g.N()), Graph: g,
					Algo: func() local.Algorithm { return baseline }, Seed: 1},
			)
		}
	}
	results, _ := sweeppkg.Run(jobs, sweeppkg.Options{Parallel: 4})
	if err := results.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for ri, r := range rows {
		ratios := make([]float64, 0, len(graphs))
		for gi, g := range graphs {
			un, nu := results[2*(ri*len(graphs)+gi)].Res, results[2*(ri*len(graphs)+gi)+1].Res
			if err := r.CheckUniform(g, 1, un.Outputs); err != nil {
				t.Fatalf("%s on n=%d: %v", r.UniformName, g.N(), err)
			}
			ratios = append(ratios, float64(un.Rounds)/float64(nu.Rounds))
		}
		t.Logf("%s: ratios across sweep: %v", r.UniformName, ratios)
		for i := 1; i < len(ratios); i++ {
			if ratios[i] > 3*ratios[0] {
				t.Errorf("%s: ratio grew from %.2f to %.2f across the sweep — transformer overhead not flat", r.UniformName, ratios[0], ratios[i])
			}
		}
	}
}

// TestBestMISSelectivity pins Theorem 4's selection on opposite extremes.
func TestBestMISSelectivity(t *testing.T) {
	combined := newUniform(t, engines.RowBestMIS, 0)
	star := build(t, scenario.GraphSpec{Family: "star", N: sweepSizes([]int{1500}, []int{600})[0]})
	res, err := local.Run(star, combined, local.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problems.Bools(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := problems.ValidMIS(star, in); err != nil {
		t.Fatal(err)
	}
	// The greedy engine solves a star in O(1); with Theorem 4 interleaving
	// the combination must stay far below Δ = 1499.
	if res.Rounds > 150 {
		t.Errorf("best-MIS took %d rounds on a star (Δ=%d); expected the O(1) engine to win", res.Rounds, star.MaxDegree())
	}
}

// TestLambdaTradeoffShape verifies the paper's trade-off direction on the
// non-uniform row: doubling λ must never slow the coloring down.
func TestLambdaTradeoffShape(t *testing.T) {
	g, err := graph.RandomRegular(256, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1 << 30
	for _, lambda := range []int{1, 2, 4, 8, 16} {
		res, err := local.Run(g, engines.RowLambdaColoring.NonUniform(lambda).Build(engines.GraphParams(g)), local.Options{})
		if err != nil {
			t.Fatal(err)
		}
		colors, err := problems.Ints(res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := problems.ValidColoring(g, colors, 0); err != nil {
			t.Fatalf("λ=%d: %v", lambda, err)
		}
		if res.Rounds > prev+2 {
			t.Errorf("λ=%d: %d rounds after %d — trade-off direction violated", lambda, res.Rounds, prev)
		}
		prev = res.Rounds
	}
}

// TestLubyLogShape verifies the O(log n) growth of the uniform randomized
// row: quadrupling n must not triple the rounds. The (n, seed) grid runs as
// one scheduler batch.
func TestLubyLogShape(t *testing.T) {
	sizes := sweepSizes([]int{1024, 4096, 16384}, []int{512, 2048, 8192})
	luby := newUniform(t, engines.RowLuby, 0)
	var jobs []sweeppkg.Job
	for _, n := range sizes {
		g := build(t, scenario.GraphSpec{Family: "gnp", N: n, P: 8 / float64(n-1), Seed: int64(n)})
		for seed := int64(0); seed < 3; seed++ {
			jobs = append(jobs, sweeppkg.Job{
				Label: fmt.Sprintf("n=%d/seed=%d", n, seed),
				Graph: g,
				Algo:  func() local.Algorithm { return luby },
				Seed:  seed,
			})
		}
	}
	results, _ := sweeppkg.Run(jobs, sweeppkg.Options{Parallel: 3})
	if err := results.FirstErr(); err != nil {
		t.Fatal(err)
	}
	rounds := make([]int, 0, len(sizes))
	for i := range sizes {
		total := 0
		for seed := 0; seed < 3; seed++ {
			total += results[3*i+seed].Res.Rounds
		}
		rounds = append(rounds, total/3)
	}
	t.Logf("luby rounds across n sweep: %v", rounds)
	if rounds[2] > rounds[0]*3 {
		t.Errorf("luby rounds grew superlogarithmically: %v", rounds)
	}
}
