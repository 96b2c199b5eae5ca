package scenario

import (
	"fmt"
	"sort"
	"strings"

	"github.com/unilocal/unilocal/internal/algorithms/coloralgo"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

// AlgoSpec names an algorithm from the registry plus the integer parameters
// some entries require (the λ of the Theorem 5 coloring trade-off, the β of
// the ruling-set rows). It is the JSON-facing half of internal/engines.
type AlgoSpec struct {
	Name   string `json:"name"`
	Lambda int    `json:"lambda,omitempty"`
	Beta   int    `json:"beta,omitempty"`
}

// String renders the spec deterministically, e.g.
// "uniform-lambda-coloring(λ=4)".
func (as AlgoSpec) String() string {
	var parts []string
	if as.Lambda != 0 {
		parts = append(parts, fmt.Sprintf("λ=%d", as.Lambda))
	}
	if as.Beta != 0 {
		parts = append(parts, fmt.Sprintf("β=%d", as.Beta))
	}
	if len(parts) == 0 {
		return as.Name
	}
	return as.Name + "(" + strings.Join(parts, ", ") + ")"
}

// AlgoEntry is one registered algorithm: a named constructor over
// internal/engines plus the problem checker that validates its outputs. The
// registry is the single place scenario files can reach algorithms by name,
// so the wiring of names to transformer stacks cannot drift per consumer.
type AlgoEntry struct {
	// Name is the spec's algorithm string.
	Name string
	// Doc is a one-line description.
	Doc string
	// PerGraph marks non-uniform baselines that are instantiated with the
	// correct guesses of a concrete graph. Uniform algorithms (PerGraph ==
	// false) are built once per AlgoSpec and shared across scenarios, seeds
	// and concurrent runs — sharing is what makes their memoized plans pay
	// off (DESIGN.md §2.5).
	PerGraph bool
	// PacksIDs marks algorithms that simulate pair-packed derived graphs
	// (line graphs, clique products) and therefore require node identities
	// <= graph.MaxID; spec validation rejects pairing them with ID regimes
	// that exceed it.
	PacksIDs bool
	// NeedsLambda / NeedsBeta declare the required AlgoSpec parameters;
	// validation also rejects parameters an entry does not consume.
	NeedsLambda bool
	NeedsBeta   bool
	// Build constructs the algorithm for the given (validated) spec.
	// PerGraph entries consume the advertised parameter vector p — the
	// knowledge regime decides how loose it is relative to the concrete
	// graph; uniform entries ignore it (that is the point of the paper).
	Build func(p core.Params, as AlgoSpec) (local.Algorithm, error)
	// Check validates a simulation's outputs on g, or is nil. p is the
	// parameter vector Build received: the advertised one for PerGraph
	// entries, whose guarantees depend on it, and the zero vector otherwise.
	Check func(g *graph.Graph, p core.Params, as AlgoSpec, outputs []any) error
}

func checkMIS(g *graph.Graph, _ core.Params, _ AlgoSpec, outputs []any) error {
	in, err := problems.Bools(outputs)
	if err != nil {
		return err
	}
	return problems.ValidMIS(g, in)
}

// checkColoring validates a proper coloring whose colors lie in
// [1, palette(g, p, as)].
func checkColoring(palette func(g *graph.Graph, p core.Params, as AlgoSpec) int) func(*graph.Graph, core.Params, AlgoSpec, []any) error {
	return func(g *graph.Graph, p core.Params, as AlgoSpec, outputs []any) error {
		colors, err := problems.Ints(outputs)
		if err != nil {
			return err
		}
		return problems.ValidColoring(g, colors, palette(g, p, as))
	}
}

func checkMatching(g *graph.Graph, _ core.Params, _ AlgoSpec, outputs []any) error {
	return problems.ValidMaximalMatching(g, outputs)
}

func checkRulingSet(g *graph.Graph, _ core.Params, as AlgoSpec, outputs []any) error {
	in, err := problems.Bools(outputs)
	if err != nil {
		return err
	}
	return problems.ValidRulingSet(g, in, 2, as.Beta)
}

var algorithms = map[string]AlgoEntry{
	"uniform-mis-delta": {
		Name: "uniform-mis-delta",
		Doc:  "Theorem 1 uniform MIS from the colormis stack (Γ = {Δ, m})",
		Build: func(_ core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.UniformMISDelta(), nil
		},
		Check: checkMIS,
	},
	"nonuniform-mis-delta": {
		Name: "nonuniform-mis-delta", PerGraph: true,
		Doc: "colormis baseline with correct {Δ, m}",
		Build: func(p core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.NonUniformMISDelta(p), nil
		},
		Check: checkMIS,
	},
	"uniform-mis-id": {
		Name: "uniform-mis-id",
		Doc:  "Theorem 1 uniform MIS whose time depends on m only (greedy substitution)",
		Build: func(_ core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.UniformMISID(), nil
		},
		Check: checkMIS,
	},
	"nonuniform-mis-id": {
		Name: "nonuniform-mis-id", PerGraph: true,
		Doc: "truncated greedy-by-identity baseline with correct m",
		Build: func(p core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.NonUniformMISID(p), nil
		},
		Check: checkMIS,
	},
	"uniform-mis-arb": {
		Name: "uniform-mis-arb",
		Doc:  "Theorem 1 uniform MIS for bounded arboricity (Obs 4.1 product bound)",
		Build: func(_ core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.UniformMISArb(), nil
		},
		Check: checkMIS,
	},
	"nonuniform-mis-arb": {
		Name: "nonuniform-mis-arb", PerGraph: true,
		Doc: "H-partition MIS baseline with correct {a, n, m}",
		Build: func(p core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.NonUniformMISArb(p), nil
		},
		Check: checkMIS,
	},
	"best-mis": {
		Name: "best-mis",
		Doc:  "Theorem 4 min of the Δ-, m- and arboricity-engines (Corollary 1(i))",
		Build: func(_ core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.BestMIS(), nil
		},
		Check: checkMIS,
	},
	"luby-mis": {
		Name: "luby-mis",
		Doc:  "uniform randomized O(log n) MIS (Luby)",
		Build: func(_ core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.LubyMIS(), nil
		},
		Check: checkMIS,
	},
	"lasvegas-mis": {
		Name: "lasvegas-mis",
		Doc:  "Theorem 2 Las Vegas MIS from truncated Luby",
		Build: func(_ core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.LasVegasMIS(), nil
		},
		Check: checkMIS,
	},
	"uniform-lambda-coloring": {
		Name: "uniform-lambda-coloring", NeedsLambda: true,
		Doc: "Theorem 5 uniform λ(Δ+1)-style coloring (Corollary 1(iii))",
		Build: func(_ core.Params, as AlgoSpec) (local.Algorithm, error) {
			return engines.UniformLambdaColoring(as.Lambda)
		},
		Check: checkColoring(func(g *graph.Graph, _ core.Params, as AlgoSpec) int {
			return core.UniformColoringPalette(engines.LambdaColoringEngine{Lambda: as.Lambda}, g.MaxDegree())
		}),
	},
	"nonuniform-lambda-coloring": {
		Name: "nonuniform-lambda-coloring", PerGraph: true, NeedsLambda: true,
		Doc: "λ-coloring baseline with correct {Δ, m}",
		Build: func(p core.Params, as AlgoSpec) (local.Algorithm, error) {
			return engines.NonUniformLambdaColoring(as.Lambda)(p), nil
		},
		// λ(Δ̃+1) for the advertised Δ̃.
		Check: checkColoring(func(_ *graph.Graph, p core.Params, as AlgoSpec) int {
			return coloralgo.LambdaPalette(as.Lambda, p.Delta)
		}),
	},
	"uniform-quad-coloring": {
		Name: "uniform-quad-coloring",
		Doc:  "Theorem 5 uniform O(Δ²)-coloring in O(log* m) rounds",
		Build: func(_ core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.UniformQuadColoring()
		},
		Check: checkColoring(func(g *graph.Graph, _ core.Params, _ AlgoSpec) int {
			return core.UniformColoringPalette(engines.QuadEngine{}, g.MaxDegree())
		}),
	},
	"uniform-deg-coloring": {
		Name: "uniform-deg-coloring", PacksIDs: true,
		Doc: "Section 5.1 uniform (deg+1)-coloring from uniform MIS (clique product)",
		Build: func(_ core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.UniformDegPlusOneColoring(engines.LubyMIS()), nil
		},
		Check: checkColoring(func(g *graph.Graph, _ core.Params, _ AlgoSpec) int { return g.MaxDegree() + 1 }),
	},
	"uniform-matching": {
		Name: "uniform-matching", PacksIDs: true,
		Doc: "Theorem 1 uniform maximal matching (line-graph lift)",
		Build: func(_ core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.UniformMatching(), nil
		},
		Check: checkMatching,
	},
	"nonuniform-matching": {
		Name: "nonuniform-matching", PerGraph: true, PacksIDs: true,
		Doc: "line-graph matching baseline with correct {Δ, m}",
		Build: func(p core.Params, _ AlgoSpec) (local.Algorithm, error) {
			return engines.NonUniformMatching(p), nil
		},
		Check: checkMatching,
	},
	"lasvegas-rulingset": {
		Name: "lasvegas-rulingset", NeedsBeta: true,
		Doc: "Theorem 2 Las Vegas (2,β)-ruling set from truncated power-graph Luby",
		Build: func(_ core.Params, as AlgoSpec) (local.Algorithm, error) {
			return engines.LasVegasRulingSet(as.Beta), nil
		},
		Check: checkRulingSet,
	},
	"nonuniform-rulingset": {
		Name: "nonuniform-rulingset", PerGraph: true, NeedsBeta: true,
		Doc: "truncated power-graph Luby baseline with correct n",
		Build: func(p core.Params, as AlgoSpec) (local.Algorithm, error) {
			return engines.NonUniformRulingSet(as.Beta)(p), nil
		},
		Check: checkRulingSet,
	},
}

// Algorithms returns the registry sorted by name.
func Algorithms() []AlgoEntry {
	out := make([]AlgoEntry, 0, len(algorithms))
	for _, e := range algorithms {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AlgorithmNames returns the comma-separated sorted registry names.
func AlgorithmNames() string {
	var names []string
	for _, e := range Algorithms() {
		names = append(names, e.Name)
	}
	return strings.Join(names, ", ")
}

// LookupAlgorithm returns the registry entry for name.
func LookupAlgorithm(name string) (AlgoEntry, bool) {
	e, ok := algorithms[name]
	return e, ok
}

// Validate checks the spec against the registry: the entry must exist, every
// parameter it needs must be set, and no unused parameter may be set (a set
// but silently ignored parameter is exactly the drift a declarative corpus
// is meant to surface).
func (as AlgoSpec) Validate() error {
	e, ok := algorithms[as.Name]
	if !ok {
		return fmt.Errorf("unknown algorithm %q (have: %s)", as.Name, AlgorithmNames())
	}
	if e.NeedsLambda && as.Lambda < 1 {
		return fmt.Errorf("algorithm %s needs lambda >= 1, got %d", as.Name, as.Lambda)
	}
	if !e.NeedsLambda && as.Lambda != 0 {
		return fmt.Errorf("algorithm %s takes no lambda parameter", as.Name)
	}
	if e.NeedsBeta && as.Beta < 1 {
		return fmt.Errorf("algorithm %s needs beta >= 1, got %d", as.Name, as.Beta)
	}
	if !e.NeedsBeta && as.Beta != 0 {
		return fmt.Errorf("algorithm %s takes no beta parameter", as.Name)
	}
	return nil
}
