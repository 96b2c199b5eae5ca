package core_test

// BenchmarkAlternating* measures the transformer hot path on the two
// experiment shapes the paper's Table 1 reproduction leans on: the E11
// alternating cascade (Theorem 2 Las Vegas MIS, many windows, shrinking
// survivor set) and the E14 transformer-overhead sweep (Theorem 1 uniform
// MIS on a sparse regular graph). BenchmarkAlternatingGather isolates the
// pruning machinery itself with idle run phases at radius 2, and times it
// at radius 3 inside the Theorem 2 ruling set, and BenchmarkPlanStep
// isolates the plan schedule arithmetic. Run with -benchmem.

import (
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// benchAlt runs a on g, one seed per iteration.
func benchAlt(b *testing.B, g *graph.Graph, a local.Algorithm) {
	b.ReportAllocs()
	var res *local.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = local.Run(g, a, local.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(float64(res.Messages), "messages")
}

// BenchmarkAlternatingCascade is the E11 shape: a weak Monte Carlo engine
// under Theorem 2, so the execution crosses many pruning windows while the
// surviving graph shrinks.
func BenchmarkAlternatingCascade(b *testing.B) {
	n := 1024
	g, err := graph.GNP(n, 8/float64(n-1), int64(n))
	if err != nil {
		b.Fatal(err)
	}
	nu, seq := parts(engines.RowLasVegasMIS)
	benchAlt(b, g, core.NewAlternating("lasvegas(luby)", core.Theorem2Plan(nu, seq), core.MISPruner()))
}

// BenchmarkAlternatingOverhead is the E14 shape: the Theorem 1 uniform MIS
// on a sparse regular graph, where the doubling schedule and the pruning
// phases are the entire overhead over the non-uniform baseline.
func BenchmarkAlternatingOverhead(b *testing.B) {
	for _, n := range []int{512, 2048} {
		g, err := graph.RandomRegular(n, 4, int64(n+4))
		if err != nil {
			b.Fatal(err)
		}
		nu, seq := parts(engines.RowMISDelta)
		b.Run(fmt.Sprintf("regular4/n=%d", n), func(b *testing.B) {
			benchAlt(b, g, core.NewAlternating("uniform(colormis)", core.Theorem1Plan(nu, seq), core.MISPruner()))
		})
	}
}

// BenchmarkAlternatingGather measures the pruning machinery at both radii
// the paper's pruners use.
//
//   - mis-radius2: idle run phases (nobody is ever selected, nobody pruned)
//     for several windows, then one correct window, under P(2,1) on
//     G(512, 10/511). Virtually every round measured is a gather, announce
//     or absorb round over the full node set.
//   - rulingset-radius3: the lasvegas-rulingset(β=2) stack on the
//     rulingset-smallworld host, a Watts–Strogatz small world (n=512, k=8,
//     β=0.2, seed 7): the Theorem 2 plan over Power(2, Luby) windows,
//     pruned by P(2,2), whose radius-3 balls hold 158 records on average.
func BenchmarkAlternatingGather(b *testing.B) {
	b.Run("mis-radius2", func(b *testing.B) {
		n := 512
		g, err := graph.GNP(n, 10/float64(n-1), int64(n))
		if err != nil {
			b.Fatal(err)
		}
		idle := local.AlgorithmFunc{
			AlgoName: "always-false",
			NewNode:  func(local.Info) local.Node { return benchFalseNode{} },
		}
		correct := colormis.New(g.MaxDegree(), g.MaxIDValue())
		budget := colormis.BoundDelta(g.MaxDegree()) + colormis.BoundM(int(g.MaxIDValue()))
		steps := make([]core.Step, 0, 9)
		for i := 0; i < 8; i++ {
			steps = append(steps, core.Step{Algo: idle, Budget: 2})
		}
		steps = append(steps, core.Step{Algo: correct, Budget: budget})
		benchAlt(b, g, core.NewAlternating("gather-probe", benchListPlan{steps: steps}, core.MISPruner()))
	})
	b.Run("rulingset-radius3", func(b *testing.B) {
		g, err := graph.WattsStrogatz(512, 8, 0.2, 7)
		if err != nil {
			b.Fatal(err)
		}
		const beta = 2
		r := engines.RowRulingSet
		benchAlt(b, g, core.LasVegas(r.NonUniform(beta), r.Seq(beta), core.RulingSetPruner(beta)))
	})
}

type benchFalseNode struct{}

func (benchFalseNode) Round(int, []local.Message) ([]local.Message, bool) { return nil, true }
func (benchFalseNode) Output() any                                        { return false }

type benchListPlan struct{ steps []core.Step }

func (p benchListPlan) Step(k int) (core.Step, bool) {
	if k < len(p.steps) {
		return p.steps[k], true
	}
	return core.Step{}, false
}

// BenchmarkPlanStep isolates the schedule arithmetic: a warm memoized plan
// versus re-walking the raw Theorem 2 doubling schedule, as every node of
// every window did before the cache.
func BenchmarkPlanStep(b *testing.B) {
	nu, seq := parts(engines.RowLasVegasMIS)
	const windows = 24
	b.Run("memo", func(b *testing.B) {
		plan := core.MemoPlan(core.Theorem2Plan(nu, seq))
		for k := 0; k < windows; k++ {
			plan.Step(k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < windows; k++ {
				plan.Step(k)
			}
		}
	})
	b.Run("raw", func(b *testing.B) {
		plan := core.Theorem2Plan(nu, seq)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < windows; k++ {
				plan.Step(k)
			}
		}
	})
}
