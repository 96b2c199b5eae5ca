package scenario

import (
	"fmt"
	"sort"
	"strings"

	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
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

// AlgoEntry is one registered algorithm: the uniform algorithm or the
// non-uniform baseline of one engines.Row. The registry is the single place
// scenario files can reach algorithms by name, and it is derived from
// engines.Rows, so the wiring of names to transformer stacks cannot drift
// per consumer.
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
	// Row is the row the entry comes from. Its Arg declares the AlgoSpec
	// parameter the entry requires (validation also rejects parameters an
	// entry does not consume), and its PacksIDs the identity restriction.
	Row engines.Row
}

// Build constructs the algorithm for the given (validated) spec. PerGraph
// entries consume the advertised parameter vector p — the knowledge regime
// decides how loose it is relative to the concrete graph; uniform entries
// ignore it (that is the point of the paper).
func (e AlgoEntry) Build(p core.Params, as AlgoSpec) (local.Algorithm, error) {
	if e.PerGraph {
		return e.Row.NonUniform(as.arg()).Build(p), nil
	}
	return e.Row.New(as.arg())
}

// Check validates a simulation's outputs on g. p is the parameter vector
// Build received: the advertised one for PerGraph entries, whose guarantees
// depend on it, and the zero vector otherwise.
func (e AlgoEntry) Check(g *graph.Graph, p core.Params, as AlgoSpec, outputs []any) error {
	if e.PerGraph {
		return e.Row.CheckBaseline(g, as.arg(), p, outputs)
	}
	return e.Row.CheckUniform(g, as.arg(), outputs)
}

// arg is the row argument the spec carries: its λ or its β (Validate
// admits at most one).
func (as AlgoSpec) arg() int { return as.Lambda + as.Beta }

// algorithms is the registry, derived once from engines.Rows: every row's
// uniform algorithm, and its baseline where it has one.
var algorithms = func() map[string]AlgoEntry {
	m := make(map[string]AlgoEntry)
	for _, r := range engines.Rows {
		m[r.UniformName] = AlgoEntry{Name: r.UniformName, Doc: r.UniformDoc, Row: r}
		if r.BaselineName != "" {
			m[r.BaselineName] = AlgoEntry{Name: r.BaselineName, Doc: r.BaselineDoc, PerGraph: true, Row: r}
		}
	}
	return m
}()

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
	needsLambda, needsBeta := e.Row.Arg == engines.ArgLambda, e.Row.Arg == engines.ArgBeta
	if needsLambda && as.Lambda < 1 {
		return fmt.Errorf("algorithm %s needs lambda >= 1, got %d", as.Name, as.Lambda)
	}
	if !needsLambda && as.Lambda != 0 {
		return fmt.Errorf("algorithm %s takes no lambda parameter", as.Name)
	}
	if needsBeta && as.Beta < 1 {
		return fmt.Errorf("algorithm %s needs beta >= 1, got %d", as.Name, as.Beta)
	}
	if !needsBeta && as.Beta != 0 {
		return fmt.Errorf("algorithm %s takes no beta parameter", as.Name)
	}
	return nil
}
