package core

// Allocation regression tests for the transformer hot path: the gather
// phase must run windows out of pooled state (arena, index, id slice, send
// buffer, window RNG) instead of reallocating per round, and a warm
// memoized plan must serve steps without allocating. A regression to
// per-window reallocation (the pre-refactor shape: fresh ball map, record
// pointers, whole-set re-flood slices, degree-sized send slices, fresh
// RNGs) costs >20 allocations per node per window and trips these bounds.

import (
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// falseAlgo outputs false immediately: under the MIS pruner nobody is
// selected, so nobody is pruned and the surviving population stays
// constant — windows built from it isolate the pruning machinery's cost.
type falseNode struct{}

func (falseNode) Round(int, []local.Message) ([]local.Message, bool) { return nil, true }
func (falseNode) Output() any                                        { return false }

var falseAlgo = local.AlgorithmFunc{
	AlgoName: "always-false",
	NewNode:  func(local.Info) local.Node { return falseNode{} },
}

// paddedPlan runs `pad` idle windows before one correct MIS window.
func paddedPlan(g *graph.Graph, pad int) Plan {
	correct := colormis.New(g.MaxDegree(), g.MaxIDValue())
	budget := colormis.BoundDelta(g.MaxDegree()) + colormis.BoundM(int(g.MaxIDValue()))
	steps := make([]Step, 0, pad+1)
	for i := 0; i < pad; i++ {
		steps = append(steps, Step{Algo: falseAlgo, Budget: 2})
	}
	steps = append(steps, Step{Algo: correct, Budget: budget})
	return listPlan{steps: steps}
}

func runPadded(t *testing.T, g *graph.Graph, pad int) float64 {
	t.Helper()
	// NewAlternating memoizes the plan; constructing it outside the measured
	// function matches real usage, where one algorithm value serves many
	// runs and windows.
	alt := NewAlternating("alloc-probe", paddedPlan(g, pad), MISPruner())
	return testing.AllocsPerRun(20, func() {
		if _, err := local.Run(g, alt, local.Options{Seed: 1, Sequential: true}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGatherSteadyStateAllocs(t *testing.T) {
	g, err := graph.GNP(64, 0.08, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := runPadded(t, g, 2)
	long := runPadded(t, g, 6)
	perWindow := (long - base) / float64(4*g.N())
	t.Logf("allocs: pad=2 %.0f, pad=6 %.0f, per node-window %.2f", base, long, perWindow)
	// Steady-state budget per node per idle window: one gatherMsg boxing
	// per gather round (pruner radius 2) plus small constant slack for the
	// pruner's Decide. The pre-refactor path cost >20 here.
	if perWindow > 8 {
		t.Errorf("gather phase allocates %.2f allocs per node-window; pooled-state budget is 8", perWindow)
	}
}

func TestMemoPlanStepAllocs(t *testing.T) {
	nu := NonUniformFunc{
		AlgoName: "probe",
		Needs:    []Param{ParamMaxID},
		Build:    func(Params) local.Algorithm { return falseAlgo },
	}
	plan := MemoPlan(Theorem1Plan(nu, Additive(func(x int) int { return x })))
	// Warm the cache, then the read path must be allocation-free.
	for k := 0; k < 12; k++ {
		if _, ok := plan.Step(k); !ok {
			t.Fatalf("plan exhausted at %d during warmup", k)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < 12; k++ {
			plan.Step(k)
		}
	})
	if allocs != 0 {
		t.Errorf("warm MemoPlan.Step allocates %.1f per 12-step sweep, want 0", allocs)
	}
}
