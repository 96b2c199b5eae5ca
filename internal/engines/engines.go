// Package engines declares every Table 1 row of Korman–Sereni–Viennot (and
// the corollaries built on the rows) once, as a Row: the non-uniform
// algorithm with its Γ, the set-sequence of its running-time bound, the
// pruner, the exact running time, the theorem that makes it uniform, and the
// problem checker with its palette bounds. The scenario registry derives
// its entries from Rows, and the tests, the command-line tools and the
// examples build on the rows, so the wiring of each experiment lives in
// exactly one place.
//
// Every uniform algorithm a row builds is an alternating algorithm whose
// plan is backed by a shared memoized step cache (core.MemoPlan, see
// DESIGN.md §2.5): build it once and reuse the value across any number of
// graphs, seeds and concurrent Runs — the schedule arithmetic is paid once
// per step index for the lifetime of the value, and results are
// byte-identical to a fresh instance per run. Building a new algorithm per
// run (as a throwaway script might) is correct but re-pays the schedule
// walks.
package engines

import (
	"fmt"

	"github.com/unilocal/unilocal/internal/algorithms/arbmis"
	"github.com/unilocal/unilocal/internal/algorithms/coloralgo"
	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/edgecolor"
	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/algorithms/linial"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/algorithms/matching"
	"github.com/unilocal/unilocal/internal/algorithms/rulingset"
	"github.com/unilocal/unilocal/internal/algorithms/seqmis"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
	"github.com/unilocal/unilocal/internal/problems"
)

// GraphParams measures the true parameter vector (n, Δ, arboricity upper
// bound, m) of a graph — the values a non-uniform baseline is fed under
// exact knowledge. The domain floor on degenerate values (n, a, m raised to
// at least 1; Δ untouched) is core.NewParams's documented policy.
func GraphParams(g *graph.Graph) core.Params {
	_, arb := graph.ArboricityBounds(g)
	return core.NewParams(g.N(), g.MaxDegree(), arb, g.MaxIDValue())
}

// Row is one row as the transformers consume it. Every function field takes
// the row's argument k, named by Arg: the λ of the coloring trade-off or
// the β of the ruling set; rows without an argument ignore it.
type Row struct {
	// UniformName and BaselineName are the registry names of the row's
	// uniform algorithm and of its non-uniform baseline ("" when the row
	// has none); UniformDoc and BaselineDoc describe them in one line.
	UniformName, UniformDoc   string
	BaselineName, BaselineDoc string
	Arg                       Arg
	// PacksIDs marks rows whose algorithms simulate pair-packed derived
	// graphs (line graphs, clique products) and therefore require node
	// identities <= graph.MaxID.
	PacksIDs bool

	// NonUniform is the non-uniform algorithm with its Γ: the baseline, and
	// the black box that Transform makes uniform. Nil on rows with neither.
	NonUniform func(k int) core.NonUniformFunc
	// Seq is the set-sequence of NonUniform's running-time bound and Pruner
	// certifies the row's problem; Transform (core.Uniform for Theorem 1,
	// core.LasVegas for Theorem 2) combines the three. Rows made uniform
	// another way set Build instead.
	Seq       func(k int) core.SetSequence
	Pruner    func(k int) core.Pruner
	Transform func(core.NonUniform, core.SetSequence, core.Pruner) local.Algorithm
	Build     func(k int) (local.Algorithm, error)
	// Rounds is NonUniform's exact running time under the guesses p, or nil
	// when the row declares none.
	Rounds func(k int, p core.Params) int

	// Problem checks every run's outputs. UniformPalette bounds the colors
	// of the uniform algorithm on g, BaselinePalette those of the baseline
	// under its advertised parameters; nil means no bound.
	Problem         Problem
	UniformPalette  func(g *graph.Graph, k int) int
	BaselinePalette func(p core.Params, k int) int
}

// Arg names the integer argument k of a row's functions.
type Arg int

// The row arguments.
const (
	ArgNone   Arg = iota // the row takes no argument
	ArgLambda            // the λ of the λ(Δ+1)-coloring trade-off
	ArgBeta              // the β of the (2, β)-ruling set
)

// New builds the row's uniform algorithm at argument k.
func (r Row) New(k int) (local.Algorithm, error) {
	if r.Build != nil {
		return r.Build(k)
	}
	return r.Transform(r.NonUniform(k), r.Seq(k), r.Pruner(k)), nil
}

// CheckUniform validates the outputs of the row's uniform algorithm on g.
func (r Row) CheckUniform(g *graph.Graph, k int, outputs []any) error {
	palette := 0
	if r.UniformPalette != nil {
		palette = r.UniformPalette(g, k)
	}
	return r.Problem.Check(g, k, palette, outputs)
}

// CheckBaseline validates the outputs of the row's baseline on g; its
// palette bound is stated in the advertised parameters p it was built with.
func (r Row) CheckBaseline(g *graph.Graph, k int, p core.Params, outputs []any) error {
	palette := 0
	if r.BaselinePalette != nil {
		palette = r.BaselinePalette(p, k)
	}
	return r.Problem.Check(g, k, palette, outputs)
}

// Problem is the problem a row solves, with the output convention of
// internal/problems.
type Problem int

// The problems of the rows.
const (
	MIS          Problem = iota + 1 // bool per node
	Coloring                        // int color per node
	EdgeColoring                    // one color per port, agreed across each edge
	Matching                        // problems.EdgeClaim per node
	RulingSet                       // bool per node: a (2, k)-ruling set
)

// Check validates outputs on g; colors must lie in [1, palette] (palette 0:
// any positive color).
func (pr Problem) Check(g *graph.Graph, k, palette int, outputs []any) error {
	switch pr {
	case MIS, RulingSet:
		in, err := problems.Bools(outputs)
		if err != nil {
			return err
		}
		if pr == MIS {
			return problems.ValidMIS(g, in)
		}
		return problems.ValidRulingSet(g, in, 2, k)
	case Coloring:
		colors, err := problems.Ints(outputs)
		if err != nil {
			return err
		}
		return problems.ValidColoring(g, colors, palette)
	case EdgeColoring:
		colors, err := problems.EdgeColors(g, outputs)
		if err != nil {
			return err
		}
		return problems.ValidEdgeColoring(g, colors, palette)
	case Matching:
		return problems.ValidMaximalMatching(g, outputs)
	}
	return fmt.Errorf("engines: unknown problem %d", pr)
}

var (
	deltaM = []core.Param{core.ParamMaxDegree, core.ParamMaxID}
	onlyN  = []core.Param{core.ParamN}
)

func misPruner(int) core.Pruner { return core.MISPruner() }

// Rows lists every row in experiment order (DESIGN.md §3).
var Rows = []Row{
	RowMISDelta, RowMISID, RowMISArb, RowLambdaColoring, RowQuadColoring,
	RowEdgeColoring, RowMatching, RowRulingSet, RowLuby, RowBestMIS,
	RowDegColoring, RowLasVegasMIS,
}

// RowMISDelta is the row "Det. MIS and (Δ+1)-coloring, O(Δ + log* n)"
// (BE/Kuhn regime): the colormis stack as a Theorem 1 black box with
// Γ = {Δ, m} and an additive bound (Corollary 2, first item).
var RowMISDelta = Row{
	UniformName: "uniform-mis-delta", UniformDoc: "Theorem 1 uniform MIS from the colormis stack (Γ = {Δ, m})",
	BaselineName: "nonuniform-mis-delta", BaselineDoc: "colormis baseline with correct {Δ, m}",
	NonUniform: func(int) core.NonUniformFunc {
		return core.NonUniformFunc{AlgoName: "colormis", Needs: deltaM,
			Build: func(p core.Params) local.Algorithm { return colormis.New(p.Delta, p.M) }}
	},
	Seq:       func(int) core.SetSequence { return core.Additive(colormis.BoundDelta, colormis.BoundM) },
	Pruner:    misPruner,
	Transform: core.Uniform,
	Rounds:    func(_ int, p core.Params) int { return colormis.Rounds(p.Delta, p.M) },
	Problem:   MIS,
}

// RowMISID is the row "Det. MIS, 2^O(√log n)" (Panconesi–Srinivasan slot;
// see DESIGN.md §4 for the greedy-by-identity substitution): the truncated
// sequential-greedy MIS with Γ = {m}.
var RowMISID = Row{
	UniformName: "uniform-mis-id", UniformDoc: "Theorem 1 uniform MIS whose time depends on m only (greedy substitution)",
	BaselineName: "nonuniform-mis-id", BaselineDoc: "truncated greedy-by-identity baseline with correct m",
	NonUniform: func(int) core.NonUniformFunc {
		return core.NonUniformFunc{AlgoName: "seqmis", Needs: []core.Param{core.ParamMaxID},
			Build: func(p core.Params) local.Algorithm { return seqmis.Truncated(int(p.M)) }}
	},
	Seq:       func(int) core.SetSequence { return core.Additive(seqmis.Rounds) },
	Pruner:    misPruner,
	Transform: core.Uniform,
	Rounds:    func(_ int, p core.Params) int { return seqmis.Rounds(int(p.M)) },
	Problem:   MIS,
}

// RowMISArb is the arboricity row (Barenboim–Elkin [6] regime,
// Corollaries 3/4): the H-partition MIS with Γ = {n, a, m} (arboricity
// taken as its degeneracy upper bound) and the product-form bound
// f(ñ)·(f(ã)+f(m̃)) of Observation 4.1.
var RowMISArb = Row{
	UniformName: "uniform-mis-arb", UniformDoc: "Theorem 1 uniform MIS for bounded arboricity (Obs 4.1 product bound)",
	BaselineName: "nonuniform-mis-arb", BaselineDoc: "H-partition MIS baseline with correct {a, n, m}",
	NonUniform: func(int) core.NonUniformFunc {
		return core.NonUniformFunc{AlgoName: "arbmis",
			Needs: []core.Param{core.ParamN, core.ParamArboricity, core.ParamMaxID},
			Build: func(p core.Params) local.Algorithm { return arbmis.New(p.Arb, p.N, p.M) }}
	},
	Seq: func(int) core.SetSequence {
		return core.Product(core.Additive(arbmis.BoundLayers), core.Additive(arbmis.BoundA, arbmis.BoundM))
	},
	Pruner:    misPruner,
	Transform: core.Uniform,
	Rounds:    func(_ int, p core.Params) int { return arbmis.Rounds(p.Arb, p.N, p.M) },
	Problem:   MIS,
}

// RowBestMIS is Corollary 1(i): Theorem 4 combines the Δ-, m- and
// arboricity-engines, running as fast as the fastest.
var RowBestMIS = Row{
	UniformName: "best-mis", UniformDoc: "Theorem 4 min of the Δ-, m- and arboricity-engines (Corollary 1(i))",
	Build: func(int) (local.Algorithm, error) {
		// Theorem 1 rows cannot fail to build.
		delta, _ := RowMISDelta.New(0)
		arb, _ := RowMISArb.New(0)
		return core.FastestOf("best-mis", core.MISPruner(), delta, arb, seqmis.New()), nil
	},
	Problem: MIS,
}

// RowLuby is the row "Rand. MIS, uniform O(log n)": Luby's algorithm is
// uniform as it stands.
var RowLuby = Row{
	UniformName: "luby-mis", UniformDoc: "uniform randomized O(log n) MIS (Luby)",
	Build:   func(int) (local.Algorithm, error) { return luby.New(), nil },
	Problem: MIS,
}

// RowLasVegasMIS is Theorem 2 on MIS: truncated Luby (weak Monte Carlo)
// becomes a uniform Las Vegas MIS.
var RowLasVegasMIS = Row{
	UniformName: "lasvegas-mis", UniformDoc: "Theorem 2 Las Vegas MIS from truncated Luby",
	NonUniform: func(int) core.NonUniformFunc {
		return core.NonUniformFunc{AlgoName: "luby-truncated", Needs: onlyN,
			Build: func(p core.Params) local.Algorithm { return luby.Truncated(p.N) }}
	},
	Seq:       func(int) core.SetSequence { return core.Additive(luby.Rounds) },
	Pruner:    misPruner,
	Transform: core.LasVegas,
	Rounds:    func(_ int, p core.Params) int { return luby.Rounds(p.N) },
	Problem:   MIS,
}

// RowLambdaColoring is the λ(Δ+1)-coloring trade-off (Corollary 1(iii),
// first item): Theorem 5 on the λ-coloring engine.
var RowLambdaColoring = Row{
	UniformName: "uniform-lambda-coloring", UniformDoc: "Theorem 5 uniform λ(Δ+1)-style coloring (Corollary 1(iii))",
	BaselineName: "nonuniform-lambda-coloring", BaselineDoc: "λ-coloring baseline with correct {Δ, m}",
	Arg: ArgLambda,
	NonUniform: func(lambda int) core.NonUniformFunc {
		return core.NonUniformFunc{AlgoName: "lambda-coloring", Needs: deltaM,
			Build: func(p core.Params) local.Algorithm { return coloralgo.Lambda(lambda, p.Delta, p.M) }}
	},
	Build: func(lambda int) (local.Algorithm, error) {
		return core.UniformColoring(LambdaColoringEngine{Lambda: lambda})
	},
	Problem: Coloring,
	UniformPalette: func(g *graph.Graph, lambda int) int {
		return core.UniformColoringPalette(LambdaColoringEngine{Lambda: lambda}, g.MaxDegree())
	},
	// λ(Δ̃+1) for the advertised Δ̃.
	BaselinePalette: func(p core.Params, lambda int) int { return coloralgo.LambdaPalette(lambda, p.Delta) },
}

// RowQuadColoring is the uniform O(Δ²)-coloring in O(log* m) rounds
// (Corollary 1(iii), second item): Theorem 5 on Linial's reduction.
var RowQuadColoring = Row{
	UniformName: "uniform-quad-coloring", UniformDoc: "Theorem 5 uniform O(Δ²)-coloring in O(log* m) rounds",
	Build:   func(int) (local.Algorithm, error) { return core.UniformColoring(QuadEngine{}) },
	Problem: Coloring,
	UniformPalette: func(g *graph.Graph, _ int) int {
		return core.UniformColoringPalette(QuadEngine{}, g.MaxDegree())
	},
}

// RowDegColoring is the Section 5.1 uniform (deg+1)-coloring, built on a
// uniform MIS through the clique product (Corollary 1(ii) route).
var RowDegColoring = Row{
	UniformName: "uniform-deg-coloring", UniformDoc: "Section 5.1 uniform (deg+1)-coloring from uniform MIS (clique product)",
	PacksIDs:       true,
	Build:          func(int) (local.Algorithm, error) { return core.ColoringFromMIS(luby.New()), nil },
	Problem:        Coloring,
	UniformPalette: func(g *graph.Graph, _ int) int { return g.MaxDegree() + 1 },
}

// RowEdgeColoring is the edge-coloring row (Corollary 1(v)): the
// (2Δ−1)-edge-coloring baseline against the Theorem 5 uniform O(Δ²)
// coloring run on the line graph.
var RowEdgeColoring = Row{
	UniformName: "uniform-edge-coloring", UniformDoc: "Theorem 5 uniform O(Δ²)-edge-coloring on the line graph (Corollary 1(v))",
	BaselineName: "nonuniform-edge-coloring", BaselineDoc: "(2Δ−1)-edge-coloring baseline with correct {Δ, m}",
	PacksIDs: true,
	NonUniform: func(int) core.NonUniformFunc {
		return core.NonUniformFunc{AlgoName: "edgecolor", Needs: deltaM,
			Build: func(p core.Params) local.Algorithm { return edgecolor.New(p.Delta, p.M) }}
	},
	Build: func(int) (local.Algorithm, error) {
		inner, err := core.UniformColoring(QuadEngine{})
		if err != nil {
			return nil, err
		}
		return lift.LineGraph(inner, nil), nil
	},
	Problem: EdgeColoring,
	// The quad palette of the line graph, whose maximum degree is the
	// largest deg(u)+deg(v)-2 over the edges uv.
	UniformPalette: func(g *graph.Graph, _ int) int {
		dL := 0
		for _, e := range g.Edges() {
			dL = max(dL, g.Degree(int(e.U))+g.Degree(int(e.V))-2)
		}
		return core.UniformColoringPalette(QuadEngine{}, dL)
	},
	BaselinePalette: func(p core.Params, _ int) int { return edgecolor.Palette(p.Delta) },
}

// RowMatching is the maximal-matching row (Corollary 1(vi)): the
// line-graph matching with Γ = {Δ, m} under Theorem 1 and P_MM.
var RowMatching = Row{
	UniformName: "uniform-matching", UniformDoc: "Theorem 1 uniform maximal matching (line-graph lift)",
	BaselineName: "nonuniform-matching", BaselineDoc: "line-graph matching baseline with correct {Δ, m}",
	PacksIDs: true,
	NonUniform: func(int) core.NonUniformFunc {
		return core.NonUniformFunc{AlgoName: "line-matching", Needs: deltaM,
			Build: func(p core.Params) local.Algorithm { return matching.New(p.Delta, p.M) }}
	},
	Seq:       func(int) core.SetSequence { return core.Additive(matching.BoundDelta, matching.BoundM) },
	Pruner:    func(int) core.Pruner { return core.MatchingPruner() },
	Transform: core.Uniform,
	Problem:   Matching,
}

// RowRulingSet is the randomized (2, β)-ruling set (Corollary 1(vii)
// slot): Theorem 2 turns the truncated power-graph Luby into a uniform Las
// Vegas algorithm.
var RowRulingSet = Row{
	UniformName: "lasvegas-rulingset", UniformDoc: "Theorem 2 Las Vegas (2,β)-ruling set from truncated power-graph Luby",
	BaselineName: "nonuniform-rulingset", BaselineDoc: "truncated power-graph Luby baseline with correct n",
	Arg: ArgBeta,
	NonUniform: func(beta int) core.NonUniformFunc {
		return core.NonUniformFunc{AlgoName: "power-luby", Needs: onlyN,
			Build: func(p core.Params) local.Algorithm { return rulingset.TruncatedPowerLuby(beta, p.N) }}
	},
	Seq: func(beta int) core.SetSequence {
		return core.Additive(func(n int) int { return rulingset.PowerLubyRounds(beta, n) })
	},
	Pruner:    core.RulingSetPruner,
	Transform: core.LasVegas,
	Rounds:    func(beta int, p core.Params) int { return rulingset.PowerLubyRounds(beta, p.N) },
	Problem:   RulingSet,
}

// QuadEngine is the O(Δ̃²)-coloring engine (Linial) for Theorem 5.
type QuadEngine struct{}

// Name implements core.ColoringEngine.
func (QuadEngine) Name() string { return "linial-quad" }

// G implements core.ColoringEngine.
func (QuadEngine) G(d int) int {
	if d < 0 {
		d = 0
	}
	return mathutil.SatMul(3*d+4, 3*d+4)
}

// New implements core.ColoringEngine.
func (QuadEngine) New(deltaHat int, mHat int64) local.Algorithm { return linial.New(deltaHat, mHat) }

// BoundDelta implements core.ColoringEngine.
func (QuadEngine) BoundDelta(d int) int { return mathutil.CeilLog2(d+1) + 16 }

// BoundM implements core.ColoringEngine.
func (QuadEngine) BoundM(m int) int { return coloralgo.BoundM(m) }

// LambdaColoringEngine is the λ(Δ̃+1)-coloring engine for Theorem 5.
type LambdaColoringEngine struct{ Lambda int }

// Name implements core.ColoringEngine.
func (e LambdaColoringEngine) Name() string { return "lambda-coloring" }

// G implements core.ColoringEngine.
func (e LambdaColoringEngine) G(d int) int {
	if d < 0 {
		d = 0
	}
	return coloralgo.LambdaPalette(e.Lambda, d)
}

// New implements core.ColoringEngine.
func (e LambdaColoringEngine) New(deltaHat int, mHat int64) local.Algorithm {
	return coloralgo.Lambda(e.Lambda, deltaHat, mHat)
}

// BoundDelta implements core.ColoringEngine.
func (e LambdaColoringEngine) BoundDelta(d int) int { return coloralgo.LambdaBoundDelta(e.Lambda, d) }

// BoundM implements core.ColoringEngine.
func (e LambdaColoringEngine) BoundM(m int) int { return coloralgo.BoundM(m) }
