package core

import (
	"math/rand/v2"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/coloralgo"
	"github.com/unilocal/unilocal/internal/algorithms/linial"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
	"github.com/unilocal/unilocal/internal/problems"
)

// quadEngine is the O(Δ̃²)-coloring engine (Linial's reduction) for
// Theorem 5 — the paper's Corollary 1(iii) "O(Δ²) colors in O(log* n)"
// instance.
type quadEngine struct{}

func (quadEngine) Name() string { return "linial-quad" }
func (quadEngine) G(d int) int {
	if d < 0 {
		d = 0
	}
	return mathutil.SatMul(3*d+4, 3*d+4)
}
func (quadEngine) New(deltaHat int, mHat int64) local.Algorithm { return linial.New(deltaHat, mHat) }
func (quadEngine) BoundDelta(d int) int                         { return mathutil.CeilLog2(d+1) + 16 }
func (quadEngine) BoundM(m int) int                             { return coloralgo.BoundM(m) }

// lambdaEngine is the λ(Δ̃+1)-coloring engine (Linial + one batched pass).
type lambdaEngine struct{ lambda int }

func (e lambdaEngine) Name() string { return "lambda-coloring" }
func (e lambdaEngine) G(d int) int {
	if d < 0 {
		d = 0
	}
	return coloralgo.LambdaPalette(e.lambda, d)
}
func (e lambdaEngine) New(deltaHat int, mHat int64) local.Algorithm {
	return coloralgo.Lambda(e.lambda, deltaHat, mHat)
}
func (e lambdaEngine) BoundDelta(d int) int { return coloralgo.LambdaBoundDelta(e.lambda, d) }
func (e lambdaEngine) BoundM(m int) int     { return coloralgo.BoundM(m) }

func coloringSuite(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gnp, err := graph.GNP(120, 0.05, 51)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := graph.Cycle(31)
	mixed := graph.DisjointUnion(graph.Star(40), graph.Path(20), graph.Complete(8))
	return map[string]*graph.Graph{
		"path":  graph.Path(50),
		"cycle": cyc,
		"star":  graph.Star(35),
		"gnp":   gnp,
		"tree":  graph.RandomTree(80, 3),
		"mixed": mixed,
	}
}

func TestTheorem5QuadColoring(t *testing.T) {
	uniform, err := UniformColoring(quadEngine{})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range coloringSuite(t) {
		t.Run(name, func(t *testing.T) {
			res, err := local.Run(g, uniform, local.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			colors, err := problems.Ints(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			palette := UniformColoringPalette(quadEngine{}, g.MaxDegree())
			if err := problems.ValidColoring(g, colors, palette); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTheorem5LambdaColoring(t *testing.T) {
	for _, lambda := range []int{1, 4} {
		uniform, err := UniformColoring(lambdaEngine{lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range coloringSuite(t) {
			res, err := local.Run(g, uniform, local.Options{Seed: 9})
			if err != nil {
				t.Fatalf("λ=%d %s: %v", lambda, name, err)
			}
			colors, err := problems.Ints(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			palette := UniformColoringPalette(lambdaEngine{lambda: lambda}, g.MaxDegree())
			if err := problems.ValidColoring(g, colors, palette); err != nil {
				t.Fatalf("λ=%d %s: %v", lambda, name, err)
			}
		}
	}
}

func TestTheorem5PaletteIsLinearInG(t *testing.T) {
	// O(g(Δ)) palette: the layered construction costs at most a constant
	// factor over g (2·g at the next threshold). Verify the envelope is at
	// most 2·g(16Δ) across degrees for the quadratic engine.
	e := quadEngine{}
	for _, d := range []int{1, 2, 5, 17, 60, 250, 1000} {
		p := UniformColoringPalette(e, d)
		if limit := 2 * e.G(16*d); p > limit {
			t.Errorf("palette(%d) = %d exceeds 2g(16Δ) = %d", d, p, limit)
		}
	}
}

func TestLayersGeometric(t *testing.T) {
	g := quadEngine{}.G
	ds := Layers(g)
	if ds[0] != 1 {
		t.Fatalf("D_1 = %d, want 1", ds[0])
	}
	for i := 1; i < len(ds); i++ {
		if ds[i] <= ds[i-1] {
			t.Fatalf("layer thresholds not increasing at %d", i)
		}
		if g(ds[i]) < 2*g(ds[i-1]) {
			t.Fatalf("g(D_%d) = %d < 2 g(D_%d) = %d", i+1, g(ds[i]), i, 2*g(ds[i-1]))
		}
		// Minimality: the previous value must not already satisfy the bound.
		if g(ds[i]-1) >= 2*g(ds[i-1]) {
			t.Fatalf("D_%d = %d not minimal", i+1, ds[i])
		}
	}
	// layerIndex is consistent with the thresholds.
	for _, deg := range []int{0, 1, 2, 3, 10, 100, 5000} {
		i, deltaHat := layerIndex(ds, deg)
		if deg >= 1 && ds[i] > deg {
			t.Errorf("layerIndex(%d): D_i = %d > deg", deg, ds[i])
		}
		if deltaHat <= deg {
			t.Errorf("layerIndex(%d): Δ̂ = %d <= deg", deg, deltaHat)
		}
	}
}

func TestUniformColoringRejectsSlowPalette(t *testing.T) {
	if _, err := UniformColoring(constEngine{}); err == nil {
		t.Fatal("constant palette bound accepted (not moderately-fast)")
	}
}

type constEngine struct{}

func (constEngine) Name() string                   { return "const" }
func (constEngine) G(int) int                      { return 7 }
func (constEngine) New(int, int64) local.Algorithm { return luby.New() }
func (constEngine) BoundDelta(int) int             { return 1 }
func (constEngine) BoundM(int) int                 { return 1 }

// slcConfig builds a random SLC configuration for pruner property tests.
func slcConfig(rng *rand.Rand, g *graph.Graph) ([]any, []any) {
	inputs := make([]any, g.N())
	outputs := make([]any, g.N())
	for u := 0; u < g.N(); u++ {
		deltaHat := g.MaxDegree() + 1
		in := &SLCInput{DeltaHat: deltaHat, GHat: 3 * deltaHat, Removed: map[problems.SLCColor]bool{}}
		inputs[u] = in
		switch rng.IntN(4) {
		case 0:
			outputs[u] = problems.SLCColor{C: rng.IntN(in.GHat) + 1, J: rng.IntN(deltaHat+1) + 1}
		case 1:
			outputs[u] = problems.SLCColor{C: in.GHat + 5, J: 1} // out of list
		case 2:
			outputs[u] = "garbage"
		default:
			outputs[u] = problems.SLCColor{C: 1, J: 1} // likely conflicting
		}
	}
	return inputs, outputs
}

func TestSLCPrunerSolutionDetection(t *testing.T) {
	g, err := graph.GNP(60, 0.08, 61)
	if err != nil {
		t.Fatal(err)
	}
	// A valid SLC solution: greedy proper coloring mapped into the lists.
	colors := graphtest.GreedyColoring(g)
	inputs := make([]any, g.N())
	outputs := make([]any, g.N())
	deltaHat := g.MaxDegree() + 1
	for u := 0; u < g.N(); u++ {
		inputs[u] = &SLCInput{DeltaHat: deltaHat, GHat: deltaHat + 2}
		outputs[u] = problems.SLCColor{C: colors[u], J: 1}
	}
	pruned := decideAll(g, SLCPruner(), inputs, outputs)
	for u, p := range pruned {
		if !p {
			t.Errorf("node %d not pruned on a valid SLC solution", u)
		}
	}
}

func TestSLCPrunerGluing(t *testing.T) {
	// Random tentative outputs; pruned nodes keep their colors, survivors
	// get their lists trimmed; a greedy list-coloring of the survivors must
	// glue into a proper coloring of G with all colors in the lists.
	rng := rand.New(rand.NewPCG(71, 72))
	g, err := graph.GNP(50, 0.1, 73)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		inputs, outputs := slcConfig(rng, g)
		pruner := SLCPruner()
		pruned := make([]bool, g.N())
		newInputs := make([]any, g.N())
		for u := 0; u < g.N(); u++ {
			d := pruner.Decide(buildBall(g, pruner.Radius(), u, inputs, outputs))
			pruned[u] = d.Prune
			newInputs[u] = inputs[u]
			if !d.Prune && d.NewInput != nil {
				newInputs[u] = d.NewInput
			}
		}
		// Survivors: greedy list coloring on the trimmed lists.
		final := make([]any, g.N())
		for u := 0; u < g.N(); u++ {
			if pruned[u] {
				final[u] = outputs[u]
			}
		}
		for u := 0; u < g.N(); u++ {
			if pruned[u] {
				continue
			}
			in := newInputs[u].(*SLCInput)
			picked := false
			for c := 1; c <= in.GHat && !picked; c++ {
				for j := 1; j <= in.DeltaHat+1 && !picked; j++ {
					cand := problems.SLCColor{C: c, J: j}
					if !in.InList(cand) {
						continue
					}
					ok := true
					for _, v := range g.Neighbors(u) {
						if fc, isCol := final[v].(problems.SLCColor); isCol && !pruned[int(v)] == false {
							_ = fc
						}
						if fc, isCol := final[v].(problems.SLCColor); isCol && fc == cand {
							ok = false
							break
						}
					}
					if ok {
						final[u] = cand
						picked = true
					}
				}
			}
			if !picked {
				t.Fatalf("trial %d: survivor %d has no available list color (invariant broken)", trial, u)
			}
		}
		// Combined output: proper and in-list everywhere.
		for u := 0; u < g.N(); u++ {
			cu, ok := final[u].(problems.SLCColor)
			if !ok {
				if pruned[u] {
					t.Fatalf("trial %d: pruned node %d has non-color output", trial, u)
				}
				continue
			}
			if pruned[u] && !inputs[u].(*SLCInput).InList(cu) {
				t.Fatalf("trial %d: pruned node %d color outside list", trial, u)
			}
			for _, v := range g.Neighbors(u) {
				if cv, ok2 := final[v].(problems.SLCColor); ok2 && cv == cu {
					t.Fatalf("trial %d: edge %d-%d monochromatic after gluing", trial, u, int(v))
				}
			}
		}
	}
}

func TestColoringFromMIS(t *testing.T) {
	uniform := ColoringFromMIS(luby.New())
	for name, g := range coloringSuite(t) {
		t.Run(name, func(t *testing.T) {
			res, err := local.Run(g, uniform, local.Options{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			colors, err := problems.Ints(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := problems.ValidColoring(g, colors, g.MaxDegree()+1); err != nil {
				t.Fatal(err)
			}
			// The Section 5.1 construction colors every node within its own
			// degree + 1 — stronger than Δ+1.
			for u := 0; u < g.N(); u++ {
				if colors[u] > g.Degree(u)+1 {
					t.Errorf("node %d color %d exceeds deg+1 = %d", u, colors[u], g.Degree(u)+1)
				}
			}
		})
	}
}
