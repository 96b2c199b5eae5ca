package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/unilocal/unilocal/internal/graph"
)

// GraphSpec declaratively names one generated topology: a family plus the
// subset of parameters that family consumes. It is the JSON-facing half of
// the graph layer — every family listed by Families builds through a
// graph.Corpus, so identical specs across scenarios share one instance.
type GraphSpec struct {
	Family string `json:"family"`
	// N is the node count (the spine length for caterpillar, the clique size
	// for lollipop).
	N int `json:"n,omitempty"`
	// Rows and Cols size the grid and torus families.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// D is the degree (regular) or dimension (hypercube).
	D int `json:"d,omitempty"`
	// K is the forest count (forest), legs per spine node (caterpillar),
	// tail length (lollipop), attachments per node (ba), or lattice degree
	// (smallworld).
	K int `json:"k,omitempty"`
	// P is the edge probability (gnp).
	P float64 `json:"p,omitempty"`
	// Radius is the connection radius (geometric).
	Radius float64 `json:"radius,omitempty"`
	// Beta is the rewiring probability (smallworld).
	Beta float64 `json:"beta,omitempty"`
	// Seed drives the family's generator; deterministic families ignore it.
	Seed int64 `json:"seed,omitempty"`
}

// String renders the spec compactly and deterministically, e.g.
// "smallworld(n=1024, k=6, beta=0.1, seed=2)". Only set fields appear, in a
// fixed order, so the string is stable across runs and processes.
func (gs GraphSpec) String() string {
	var b strings.Builder
	b.WriteString(gs.Family)
	b.WriteByte('(')
	first := true
	add := func(name, val string) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(val)
	}
	if gs.N != 0 {
		add("n", fmt.Sprint(gs.N))
	}
	if gs.Rows != 0 {
		add("rows", fmt.Sprint(gs.Rows))
	}
	if gs.Cols != 0 {
		add("cols", fmt.Sprint(gs.Cols))
	}
	if gs.D != 0 {
		add("d", fmt.Sprint(gs.D))
	}
	if gs.K != 0 {
		add("k", fmt.Sprint(gs.K))
	}
	if gs.P != 0 {
		add("p", fmt.Sprintf("%g", gs.P))
	}
	if gs.Radius != 0 {
		add("radius", fmt.Sprintf("%g", gs.Radius))
	}
	if gs.Beta != 0 {
		add("beta", fmt.Sprintf("%g", gs.Beta))
	}
	if gs.Seed != 0 {
		add("seed", fmt.Sprint(gs.Seed))
	}
	b.WriteByte(')')
	return b.String()
}

// fieldSet declares which GraphSpec parameters a family consumes; Validate
// rejects any set parameter outside the set, so a mis-parameterized spec
// (e.g. "n" on hypercube, which takes "d") fails loudly instead of silently
// measuring a different graph than its author intended.
type fieldSet struct {
	N, Rows, Cols, D, K, P, Radius, Beta, Seed bool
}

// Family describes one graph family: its spec parameters (for help text and
// validation) and its corpus-backed builder. The table below is the single
// source of truth for every consumer — the scenario loader, cmd/scenarioctl
// and cmd/graphgen all enumerate it, so a family added here appears
// everywhere at once.
type Family struct {
	// Name is the spec's family string.
	Name string
	// Params names the GraphSpec fields the family consumes, for help text.
	Params string
	// Doc is a one-line description.
	Doc string
	// Validate rejects out-of-range parameters without building.
	Validate func(gs GraphSpec) error
	// Build constructs (or fetches) the graph through the corpus.
	Build func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error)
	// uses declares the consumed parameters (enforced by GraphSpec.Validate,
	// applied by Normalize).
	uses fieldSet
}

func needN(gs GraphSpec) error {
	if gs.N < 1 {
		return fmt.Errorf("family %s needs n >= 1, got %d", gs.Family, gs.N)
	}
	return nil
}

var families = map[string]Family{
	"path": {
		Name: "path", Params: "n", Doc: "the path on n nodes",
		uses:     fieldSet{N: true},
		Validate: needN,
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.Path(gs.N), nil
		},
	},
	"cycle": {
		Name: "cycle", Params: "n", Doc: "the cycle on n >= 3 nodes",
		uses: fieldSet{N: true},
		Validate: func(gs GraphSpec) error {
			if gs.N < 3 {
				return fmt.Errorf("family cycle needs n >= 3, got %d", gs.N)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.Cycle(gs.N)
		},
	},
	"star": {
		Name: "star", Params: "n", Doc: "the star with one centre and n-1 leaves",
		uses:     fieldSet{N: true},
		Validate: needN,
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.Star(gs.N), nil
		},
	},
	"clique": {
		Name: "clique", Params: "n", Doc: "the complete graph K_n",
		uses:     fieldSet{N: true},
		Validate: needN,
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.Complete(gs.N), nil
		},
	},
	"grid": {
		Name: "grid", Params: "rows, cols", Doc: "the rows x cols grid",
		uses: fieldSet{Rows: true, Cols: true},
		Validate: func(gs GraphSpec) error {
			if gs.Rows < 1 || gs.Cols < 1 {
				return fmt.Errorf("family grid needs rows, cols >= 1, got %dx%d", gs.Rows, gs.Cols)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.Grid(gs.Rows, gs.Cols), nil
		},
	},
	"torus": {
		Name: "torus", Params: "rows, cols", Doc: "the rows x cols torus (grid with wraparound)",
		uses: fieldSet{Rows: true, Cols: true},
		Validate: func(gs GraphSpec) error {
			if gs.Rows < 3 || gs.Cols < 3 {
				return fmt.Errorf("family torus needs rows, cols >= 3, got %dx%d", gs.Rows, gs.Cols)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			key := graph.CorpusKey{Family: "torus", A: int64(gs.Rows), B: int64(gs.Cols)}
			return c.Get(key, func() (*graph.Graph, error) { return graph.Torus(gs.Rows, gs.Cols) })
		},
	},
	"hypercube": {
		Name: "hypercube", Params: "d", Doc: "the d-dimensional hypercube on 2^d nodes",
		uses: fieldSet{D: true},
		Validate: func(gs GraphSpec) error {
			if gs.D < 0 || gs.D > 20 {
				return fmt.Errorf("family hypercube needs d in [0, 20], got %d", gs.D)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			key := graph.CorpusKey{Family: "hypercube", A: int64(gs.D)}
			return c.Get(key, func() (*graph.Graph, error) { return graph.Hypercube(gs.D) })
		},
	},
	"tree": {
		Name: "tree", Params: "n, seed", Doc: "a uniformly random recursive tree",
		uses:     fieldSet{N: true, Seed: true},
		Validate: needN,
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.RandomTree(gs.N, gs.Seed), nil
		},
	},
	"caterpillar": {
		Name: "caterpillar", Params: "n (spine), k (legs)",
		uses: fieldSet{N: true, K: true},
		Doc:  "a spine path with k pendant leaves per spine node",
		Validate: func(gs GraphSpec) error {
			if gs.N < 1 || gs.K < 0 {
				return fmt.Errorf("family caterpillar needs n >= 1 and k >= 0, got n=%d k=%d", gs.N, gs.K)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			key := graph.CorpusKey{Family: "caterpillar", A: int64(gs.N), B: int64(gs.K)}
			return c.Get(key, func() (*graph.Graph, error) { return graph.Caterpillar(gs.N, gs.K), nil })
		},
	},
	"lollipop": {
		Name: "lollipop", Params: "n (clique), k (tail)",
		uses: fieldSet{N: true, K: true},
		Doc:  "a clique of size n with a pendant path of k nodes",
		Validate: func(gs GraphSpec) error {
			if gs.N < 1 || gs.K < 0 {
				return fmt.Errorf("family lollipop needs n >= 1 and k >= 0, got n=%d k=%d", gs.N, gs.K)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			key := graph.CorpusKey{Family: "lollipop", A: int64(gs.N), B: int64(gs.K)}
			return c.Get(key, func() (*graph.Graph, error) { return graph.Lollipop(gs.N, gs.K), nil })
		},
	},
	"gnp": {
		Name: "gnp", Params: "n, p, seed", Doc: "the Erdős–Rényi random graph G(n, p)",
		uses: fieldSet{N: true, P: true, Seed: true},
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if gs.P < 0 || gs.P > 1 || math.IsNaN(gs.P) {
				return fmt.Errorf("family gnp needs p in [0, 1], got %v", gs.P)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.GNP(gs.N, gs.P, gs.Seed)
		},
	},
	"regular": {
		Name: "regular", Params: "n, d, seed", Doc: "a random d-regular simple graph",
		uses: fieldSet{N: true, D: true, Seed: true},
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if gs.D < 0 || gs.D >= gs.N || gs.N*gs.D%2 != 0 {
				return fmt.Errorf("family regular needs 0 <= d < n with n*d even, got n=%d d=%d", gs.N, gs.D)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.RandomRegular(gs.N, gs.D, gs.Seed)
		},
	},
	"forest": {
		Name: "forest", Params: "n, k, seed",
		uses: fieldSet{N: true, K: true, Seed: true},
		Doc:  "the union of k random recursive forests (arboricity <= k)",
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if gs.K < 1 {
				return fmt.Errorf("family forest needs k >= 1, got %d", gs.K)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.ForestUnion(gs.N, gs.K, gs.Seed), nil
		},
	},
	"ba": {
		Name: "ba", Params: "n, k (attachments), seed",
		uses: fieldSet{N: true, K: true, Seed: true},
		Doc:  "Barabási–Albert preferential attachment (power-law tail, degeneracy <= k)",
		Validate: func(gs GraphSpec) error {
			if gs.K < 1 || gs.K >= gs.N {
				return fmt.Errorf("family ba needs 1 <= k < n, got n=%d k=%d", gs.N, gs.K)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.PreferentialAttachment(gs.N, gs.K, gs.Seed)
		},
	},
	"geometric": {
		Name: "geometric", Params: "n, radius, seed",
		uses: fieldSet{N: true, Radius: true, Seed: true},
		Doc:  "random geometric (unit-disk) graph on the unit square",
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if !(gs.Radius > 0 && gs.Radius <= 1) {
				return fmt.Errorf("family geometric needs radius in (0, 1], got %v", gs.Radius)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.RandomGeometric(gs.N, gs.Radius, gs.Seed)
		},
	},
	"huge-geometric": {
		Name: "huge-geometric", Params: "n, d (target average degree), seed",
		uses: fieldSet{N: true, D: true, Seed: true},
		Doc:  "big-graph geometric: unit-disk graph with radius derived from a target average degree",
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if int64(gs.N) > graph.MaxID {
				return fmt.Errorf("family huge-geometric needs n <= %d, got %d", graph.MaxID, gs.N)
			}
			if gs.D < 1 || gs.D >= gs.N {
				return fmt.Errorf("family huge-geometric needs 1 <= d < n, got n=%d d=%d", gs.N, gs.D)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.RandomGeometric(gs.N, hugeGeomRadius(gs.N, gs.D), gs.Seed)
		},
	},
	"huge-ba": {
		Name: "huge-ba", Params: "n, k (attachments), seed",
		uses: fieldSet{N: true, K: true, Seed: true},
		Doc:  "big-graph preferential attachment: ba at 10^7–10^8 nodes via streaming CSR generation",
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if int64(gs.N) > graph.MaxID {
				return fmt.Errorf("family huge-ba needs n <= %d, got %d", graph.MaxID, gs.N)
			}
			if gs.K < 1 || gs.K >= gs.N {
				return fmt.Errorf("family huge-ba needs 1 <= k < n, got n=%d k=%d", gs.N, gs.K)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.PreferentialAttachment(gs.N, gs.K, gs.Seed)
		},
	},
	"smallworld": {
		Name: "smallworld", Params: "n, k (lattice degree), beta, seed",
		uses: fieldSet{N: true, K: true, Beta: true, Seed: true},
		Doc:  "Watts–Strogatz small world: ring lattice with beta-rewired edges",
		Validate: func(gs GraphSpec) error {
			if gs.K < 2 || gs.K%2 != 0 || gs.K >= gs.N {
				return fmt.Errorf("family smallworld needs even k in [2, n), got n=%d k=%d", gs.N, gs.K)
			}
			if gs.Beta < 0 || gs.Beta > 1 || math.IsNaN(gs.Beta) {
				return fmt.Errorf("family smallworld needs beta in [0, 1], got %v", gs.Beta)
			}
			return nil
		},
		Build: func(c *graph.Corpus, gs GraphSpec) (*graph.Graph, error) {
			return c.WattsStrogatz(gs.N, gs.K, gs.Beta, gs.Seed)
		},
	},
}

// hugeGeomRadius derives the unit-disk radius that gives a target average
// degree d on n uniform points: the expected degree is ~(n-1)·πr², so
// r = sqrt(d / (π(n-1))). The formula is a fixed deterministic function of
// the spec, so a huge-geometric spec names the same underlying geometric
// corpus key (and store image) on every replica.
func hugeGeomRadius(n, d int) float64 {
	r := math.Sqrt(float64(d) / (math.Pi * float64(n-1)))
	if r > 1 {
		r = 1
	}
	return r
}

// satMulInt multiplies non-negative sizes saturating at math.MaxInt, so a
// client-supplied dimension pair can never wrap a size estimate negative
// (which would slip past any "estimate > limit" admission check). Negative
// inputs — impossible after Validate, but estimators stay total — clamp
// to 0.
func satMulInt(a, b int) int {
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// satAddInt adds non-negative sizes saturating at math.MaxInt.
func satAddInt(a, b int) int {
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// ApproxNodes estimates the node count the (validated) spec will build —
// an upper bound good enough for admission control in serving contexts,
// where an arbitrary client must not be able to commission an arbitrarily
// large graph. Arithmetic saturates at math.MaxInt, so absurd dimensions
// report absurd (never negative) estimates. Unknown families report their
// raw n.
func (gs GraphSpec) ApproxNodes() int {
	switch gs.Family {
	case "grid", "torus":
		return satMulInt(gs.Rows, gs.Cols)
	case "hypercube":
		if gs.D < 0 {
			return 0
		}
		if gs.D >= 62 { // Validate caps d at 20; stay total regardless
			return math.MaxInt
		}
		return 1 << gs.D
	case "caterpillar":
		return satMulInt(gs.N, satAddInt(gs.K, 1))
	case "lollipop":
		return satAddInt(gs.N, gs.K)
	default:
		return max(gs.N, 0)
	}
}

// ApproxEdges estimates the edge count the (validated) spec will build, for
// the same admission purpose: families whose edge count is superlinear in n
// (clique, lollipop, dense gnp/geometric) must be bounded by the memory
// they actually allocate, not their node count.
func (gs GraphSpec) ApproxEdges() int {
	half := func(n int) int { return satMulInt(n, n-1) / 2 }
	switch gs.Family {
	case "clique":
		return half(gs.N)
	case "lollipop":
		return satAddInt(half(gs.N), gs.K)
	case "grid", "torus":
		return satMulInt(2, satMulInt(gs.Rows, gs.Cols))
	case "hypercube":
		return satMulInt(gs.D, gs.ApproxNodes()) / 2
	case "regular":
		return satMulInt(gs.N, gs.D) / 2
	case "gnp":
		return int(math.Min(gs.P*float64(half(gs.N)), math.MaxInt/2))
	case "geometric":
		// Expected pairs within radius r on the unit square: ~ n²·πr²/2.
		return int(math.Min(math.Pi*gs.Radius*gs.Radius*float64(half(gs.N)), math.MaxInt/2))
	case "huge-geometric":
		// The radius is derived from the target average degree d, so the
		// expected edge count is simply n·d/2.
		return satMulInt(gs.N, gs.D) / 2
	case "ba", "huge-ba", "smallworld", "forest", "caterpillar":
		k := gs.K
		if k == 0 {
			k = 1
		}
		return satMulInt(gs.ApproxNodes(), k)
	default:
		return gs.ApproxNodes()
	}
}

// Families returns the family table sorted by name.
func Families() []Family {
	out := make([]Family, 0, len(families))
	for _, f := range families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FamilyTable renders the family table as aligned help text, one line per
// family — the single listing cmd/graphgen -families and cmd/scenarioctl
// -families both print.
func FamilyTable() string {
	var b strings.Builder
	for _, f := range Families() {
		fmt.Fprintf(&b, "%-14s (%s) — %s\n", f.Name, f.Params, f.Doc)
	}
	return b.String()
}

// FamilyNames returns the comma-separated sorted family names, for help text.
func FamilyNames() string {
	var names []string
	for _, f := range Families() {
		names = append(names, f.Name)
	}
	return strings.Join(names, ", ")
}

// Validate checks the spec against its family's parameter ranges without
// building the graph. A set parameter the family does not consume is an
// error, for the same reason the loader rejects unknown JSON fields: a spec
// that silently measures something other than what its author wrote is the
// drift a declarative corpus exists to surface.
func (gs GraphSpec) Validate() error {
	f, ok := families[gs.Family]
	if !ok {
		return fmt.Errorf("unknown graph family %q (have: %s)", gs.Family, FamilyNames())
	}
	type param struct {
		name string
		set  bool
		used bool
	}
	for _, p := range []param{
		{"n", gs.N != 0, f.uses.N},
		{"rows", gs.Rows != 0, f.uses.Rows},
		{"cols", gs.Cols != 0, f.uses.Cols},
		{"d", gs.D != 0, f.uses.D},
		{"k", gs.K != 0, f.uses.K},
		{"p", gs.P != 0, f.uses.P},
		{"radius", gs.Radius != 0, f.uses.Radius},
		{"beta", gs.Beta != 0, f.uses.Beta},
		{"seed", gs.Seed != 0, f.uses.Seed},
	} {
		if p.set && !p.used {
			return fmt.Errorf("family %s takes no %s parameter (takes: %s)", gs.Family, p.name, f.Params)
		}
	}
	return f.Validate(gs)
}

// Normalize returns gs with every parameter its family does not consume
// zeroed. Flag-driven callers (cmd/graphgen) populate every field with flag
// defaults; normalizing first makes the result identical to what a scenario
// file would declare. Unknown families pass through untouched for Validate
// to reject.
func Normalize(gs GraphSpec) GraphSpec {
	f, ok := families[gs.Family]
	if !ok {
		return gs
	}
	if !f.uses.N {
		gs.N = 0
	}
	if !f.uses.Rows {
		gs.Rows = 0
	}
	if !f.uses.Cols {
		gs.Cols = 0
	}
	if !f.uses.D {
		gs.D = 0
	}
	if !f.uses.K {
		gs.K = 0
	}
	if !f.uses.P {
		gs.P = 0
	}
	if !f.uses.Radius {
		gs.Radius = 0
	}
	if !f.uses.Beta {
		gs.Beta = 0
	}
	if !f.uses.Seed {
		gs.Seed = 0
	}
	return gs
}

// Build constructs the graph through the corpus.
func (gs GraphSpec) Build(c *graph.Corpus) (*graph.Graph, error) {
	if err := gs.Validate(); err != nil {
		return nil, err
	}
	return families[gs.Family].Build(c, gs)
}
