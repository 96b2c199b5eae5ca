package scenario

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/unilocal/unilocal/internal/graph"
)

// GraphSpec declaratively names one generated topology: a family plus the
// subset of parameters that family consumes. It is the JSON-facing half of
// the graph layer — every family listed by Families builds through a
// graph.Corpus, so identical specs across scenarios share one instance.
// The parameters below are listed once more, by name, in the params table.
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

// param is one GraphSpec parameter: its name, which is also its JSON key,
// its value (nil when unset, i.e. zero) and a way to zero it.
type param struct {
	name  string
	value func(gs *GraphSpec) any
	clear func(gs *GraphSpec)
}

// field declares the parameter name, held in the GraphSpec field ptr
// points at.
func field[T int | int64 | float64](name string, ptr func(gs *GraphSpec) *T) param {
	return param{
		name: name,
		value: func(gs *GraphSpec) any {
			if v := *ptr(gs); v != 0 {
				return v
			}
			return nil
		},
		clear: func(gs *GraphSpec) { *ptr(gs) = 0 },
	}
}

// params declares the nine GraphSpec parameters once, in String's order.
// String, Validate, Normalize and every family's Params read it.
var params = [...]param{
	field("n", func(gs *GraphSpec) *int { return &gs.N }),
	field("rows", func(gs *GraphSpec) *int { return &gs.Rows }),
	field("cols", func(gs *GraphSpec) *int { return &gs.Cols }),
	field("d", func(gs *GraphSpec) *int { return &gs.D }),
	field("k", func(gs *GraphSpec) *int { return &gs.K }),
	field("p", func(gs *GraphSpec) *float64 { return &gs.P }),
	field("radius", func(gs *GraphSpec) *float64 { return &gs.Radius }),
	field("beta", func(gs *GraphSpec) *float64 { return &gs.Beta }),
	field("seed", func(gs *GraphSpec) *int64 { return &gs.Seed }),
}

// String renders the spec compactly and deterministically, e.g.
// "smallworld(n=1024, k=6, beta=0.1, seed=2)". Only set fields appear, in a
// fixed order, so the string is stable across runs and processes.
func (gs GraphSpec) String() string {
	var b strings.Builder
	b.WriteString(gs.Family)
	b.WriteByte('(')
	sep := ""
	for _, p := range params {
		if v := p.value(&gs); v != nil {
			fmt.Fprintf(&b, "%s%s=%v", sep, p.name, v)
			sep = ", "
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Family declares one graph family, once: its parameters, validation,
// corpus key, generator and size estimates. The families table is the
// single source of truth for every consumer — GraphSpec, the scenario
// loader, the serving layer's admission bounds, cmd/scenarioctl and
// cmd/graphgen all read it, so a family added here appears everywhere at
// once.
type Family struct {
	// Name is the spec's family string.
	Name string
	// Params lists the GraphSpec parameters the family consumes, each
	// optionally glossed in parentheses ("n (spine), k (legs)"). It is the
	// help text and the used-parameter set: Validate rejects any other set
	// parameter and Normalize zeroes the others.
	Params string
	// Doc is a one-line description.
	Doc string
	// Validate rejects out-of-range parameters without building.
	Validate func(gs GraphSpec) error
	// key names the graph in the corpus and, through graph.ImageName, its
	// store image, so an existing family's key never changes.
	key func(gs GraphSpec) graph.CorpusKey
	// gen generates the graph on a corpus miss.
	gen func(gs GraphSpec) (*graph.Graph, error)
	// nodes and edges estimate the built size for admission control,
	// saturating at math.MaxInt; edges is handed the node estimate. Nil
	// nodes reports n, nil edges reports the node estimate.
	nodes func(gs GraphSpec) int
	edges func(gs GraphSpec, nodes int) int
	// uses is Params as a set of params indices.
	uses uint16
}

func needN(gs GraphSpec) error {
	if gs.N < 1 {
		return fmt.Errorf("family %s needs n >= 1, got %d", gs.Family, gs.N)
	}
	return nil
}

// families is the family table, one entry per family, sorted by name.
var families = []Family{
	{
		Name: "ba", Params: "n, k (attachments), seed",
		Doc: "Barabási–Albert preferential attachment (power-law tail, degeneracy <= k)",
		Validate: func(gs GraphSpec) error {
			if gs.K < 1 || gs.K >= gs.N {
				return fmt.Errorf("family ba needs 1 <= k < n, got n=%d k=%d", gs.N, gs.K)
			}
			return nil
		},
		key: baKey, gen: baGen, edges: kPerNode,
	},
	{
		Name: "caterpillar", Params: "n (spine), k (legs)",
		Doc: "a spine path with k pendant leaves per spine node",
		Validate: func(gs GraphSpec) error {
			if gs.N < 1 || gs.K < 0 {
				return fmt.Errorf("family caterpillar needs n >= 1 and k >= 0, got n=%d k=%d", gs.N, gs.K)
			}
			return nil
		},
		key:   func(gs GraphSpec) graph.CorpusKey { return corpusKey("caterpillar", gs.N, gs.K, 0, 0) },
		gen:   func(gs GraphSpec) (*graph.Graph, error) { return graph.Caterpillar(gs.N, gs.K), nil },
		nodes: func(gs GraphSpec) int { return satMulInt(gs.N, satAddInt(gs.K, 1)) },
		edges: kPerNode,
	},
	{
		Name: "clique", Params: "n", Doc: "the complete graph K_n",
		Validate: needN,
		key:      func(gs GraphSpec) graph.CorpusKey { return corpusKey("complete", gs.N, 0, 0, 0) },
		gen:      func(gs GraphSpec) (*graph.Graph, error) { return graph.Complete(gs.N), nil },
		edges:    func(gs GraphSpec, _ int) int { return pairs(gs.N) },
	},
	{
		Name: "cycle", Params: "n", Doc: "the cycle on n >= 3 nodes",
		Validate: func(gs GraphSpec) error {
			if gs.N < 3 {
				return fmt.Errorf("family cycle needs n >= 3, got %d", gs.N)
			}
			return nil
		},
		key: func(gs GraphSpec) graph.CorpusKey { return corpusKey("cycle", gs.N, 0, 0, 0) },
		gen: func(gs GraphSpec) (*graph.Graph, error) { return graph.Cycle(gs.N) },
	},
	{
		Name: "forest", Params: "n, k, seed",
		Doc: "the union of k random recursive forests (arboricity <= k)",
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if gs.K < 1 {
				return fmt.Errorf("family forest needs k >= 1, got %d", gs.K)
			}
			return nil
		},
		key:   func(gs GraphSpec) graph.CorpusKey { return corpusKey("forest-union", gs.N, gs.K, 0, gs.Seed) },
		gen:   func(gs GraphSpec) (*graph.Graph, error) { return graph.ForestUnion(gs.N, gs.K, gs.Seed), nil },
		edges: kPerNode,
	},
	{
		Name: "geometric", Params: "n, radius, seed",
		Doc: "random geometric (unit-disk) graph on the unit square",
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if !(gs.Radius > 0 && gs.Radius <= 1) {
				return fmt.Errorf("family geometric needs radius in (0, 1], got %v", gs.Radius)
			}
			return nil
		},
		key:   func(gs GraphSpec) graph.CorpusKey { return corpusKey("geometric", gs.N, 0, gs.Radius, gs.Seed) },
		gen:   func(gs GraphSpec) (*graph.Graph, error) { return graph.RandomGeometric(gs.N, gs.Radius, gs.Seed) },
		edges: func(gs GraphSpec, _ int) int { return unitDiskEdges(gs.N, gs.Radius) },
	},
	{
		Name: "gnp", Params: "n, p, seed", Doc: "the Erdős–Rényi random graph G(n, p)",
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if gs.P < 0 || gs.P > 1 || math.IsNaN(gs.P) {
				return fmt.Errorf("family gnp needs p in [0, 1], got %v", gs.P)
			}
			return nil
		},
		key:   func(gs GraphSpec) graph.CorpusKey { return corpusKey("gnp", gs.N, 0, gs.P, gs.Seed) },
		gen:   func(gs GraphSpec) (*graph.Graph, error) { return graph.GNP(gs.N, gs.P, gs.Seed) },
		edges: func(gs GraphSpec, _ int) int { return pairsBound(gs.N, gs.P, gnpTail) },
	},
	{
		Name: "grid", Params: "rows, cols", Doc: "the rows x cols grid",
		Validate: func(gs GraphSpec) error {
			if gs.Rows < 1 || gs.Cols < 1 {
				return fmt.Errorf("family grid needs rows, cols >= 1, got %dx%d", gs.Rows, gs.Cols)
			}
			return nil
		},
		key:   func(gs GraphSpec) graph.CorpusKey { return corpusKey("grid", gs.Rows, gs.Cols, 0, 0) },
		gen:   func(gs GraphSpec) (*graph.Graph, error) { return graph.Grid(gs.Rows, gs.Cols), nil },
		nodes: gridNodes, edges: gridEdges,
	},
	{
		Name: "huge-ba", Params: "n, k (attachments), seed",
		Doc: "big-graph preferential attachment: ba at 10^7–10^8 nodes via streaming CSR generation",
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
		key: baKey, gen: baGen, edges: kPerNode,
	},
	{
		Name: "huge-geometric", Params: "n, d (target average degree), seed",
		Doc: "big-graph geometric: unit-disk graph with radius derived from a target average degree",
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
		key: func(gs GraphSpec) graph.CorpusKey {
			return corpusKey("geometric", gs.N, 0, hugeGeomRadius(gs.N, gs.D), gs.Seed)
		},
		gen: func(gs GraphSpec) (*graph.Graph, error) {
			return graph.RandomGeometric(gs.N, hugeGeomRadius(gs.N, gs.D), gs.Seed)
		},
		// The radius is derived from the target average degree d, so the
		// expected edge count is n·d/2; the bound adds geometric's margin.
		edges: func(gs GraphSpec, _ int) int { return unitDiskEdges(gs.N, hugeGeomRadius(gs.N, gs.D)) },
	},
	{
		Name: "hypercube", Params: "d", Doc: "the d-dimensional hypercube on 2^d nodes",
		Validate: func(gs GraphSpec) error {
			if gs.D < 0 || gs.D > 20 {
				return fmt.Errorf("family hypercube needs d in [0, 20], got %d", gs.D)
			}
			return nil
		},
		key: func(gs GraphSpec) graph.CorpusKey { return corpusKey("hypercube", gs.D, 0, 0, 0) },
		gen: func(gs GraphSpec) (*graph.Graph, error) { return graph.Hypercube(gs.D) },
		nodes: func(gs GraphSpec) int {
			if gs.D < 0 {
				return 0
			}
			if gs.D >= 62 { // Validate caps d at 20; stay total regardless
				return math.MaxInt
			}
			return 1 << gs.D
		},
		edges: func(gs GraphSpec, nodes int) int { return satMulInt(gs.D, nodes) / 2 },
	},
	{
		Name: "lollipop", Params: "n (clique), k (tail)",
		Doc: "a clique of size n with a pendant path of k nodes",
		Validate: func(gs GraphSpec) error {
			if gs.N < 1 || gs.K < 0 {
				return fmt.Errorf("family lollipop needs n >= 1 and k >= 0, got n=%d k=%d", gs.N, gs.K)
			}
			return nil
		},
		key:   func(gs GraphSpec) graph.CorpusKey { return corpusKey("lollipop", gs.N, gs.K, 0, 0) },
		gen:   func(gs GraphSpec) (*graph.Graph, error) { return graph.Lollipop(gs.N, gs.K), nil },
		nodes: func(gs GraphSpec) int { return satAddInt(gs.N, gs.K) },
		edges: func(gs GraphSpec, _ int) int { return satAddInt(pairs(gs.N), gs.K) },
	},
	{
		Name: "path", Params: "n", Doc: "the path on n nodes",
		Validate: needN,
		key:      func(gs GraphSpec) graph.CorpusKey { return corpusKey("path", gs.N, 0, 0, 0) },
		gen:      func(gs GraphSpec) (*graph.Graph, error) { return graph.Path(gs.N), nil },
	},
	{
		Name: "regular", Params: "n, d, seed", Doc: "a random d-regular simple graph",
		Validate: func(gs GraphSpec) error {
			if err := needN(gs); err != nil {
				return err
			}
			if gs.D < 0 || gs.D >= gs.N || gs.N*gs.D%2 != 0 {
				return fmt.Errorf("family regular needs 0 <= d < n with n*d even, got n=%d d=%d", gs.N, gs.D)
			}
			return nil
		},
		key:   func(gs GraphSpec) graph.CorpusKey { return corpusKey("regular", gs.N, gs.D, 0, gs.Seed) },
		gen:   func(gs GraphSpec) (*graph.Graph, error) { return graph.RandomRegular(gs.N, gs.D, gs.Seed) },
		edges: func(gs GraphSpec, _ int) int { return satMulInt(gs.N, gs.D) / 2 },
	},
	{
		Name: "smallworld", Params: "n, k (lattice degree), beta, seed",
		Doc: "Watts–Strogatz small world: ring lattice with beta-rewired edges",
		Validate: func(gs GraphSpec) error {
			if gs.K < 2 || gs.K%2 != 0 || gs.K >= gs.N {
				return fmt.Errorf("family smallworld needs even k in [2, n), got n=%d k=%d", gs.N, gs.K)
			}
			if gs.Beta < 0 || gs.Beta > 1 || math.IsNaN(gs.Beta) {
				return fmt.Errorf("family smallworld needs beta in [0, 1], got %v", gs.Beta)
			}
			return nil
		},
		key:   func(gs GraphSpec) graph.CorpusKey { return corpusKey("smallworld", gs.N, gs.K, gs.Beta, gs.Seed) },
		gen:   func(gs GraphSpec) (*graph.Graph, error) { return graph.WattsStrogatz(gs.N, gs.K, gs.Beta, gs.Seed) },
		edges: kPerNode,
	},
	{
		Name: "star", Params: "n", Doc: "the star with one centre and n-1 leaves",
		Validate: needN,
		key:      func(gs GraphSpec) graph.CorpusKey { return corpusKey("star", gs.N, 0, 0, 0) },
		gen:      func(gs GraphSpec) (*graph.Graph, error) { return graph.Star(gs.N), nil },
	},
	{
		Name: "torus", Params: "rows, cols", Doc: "the rows x cols torus (grid with wraparound)",
		Validate: func(gs GraphSpec) error {
			if gs.Rows < 3 || gs.Cols < 3 {
				return fmt.Errorf("family torus needs rows, cols >= 3, got %dx%d", gs.Rows, gs.Cols)
			}
			return nil
		},
		key:   func(gs GraphSpec) graph.CorpusKey { return corpusKey("torus", gs.Rows, gs.Cols, 0, 0) },
		gen:   func(gs GraphSpec) (*graph.Graph, error) { return graph.Torus(gs.Rows, gs.Cols) },
		nodes: gridNodes, edges: gridEdges,
	},
	{
		Name: "tree", Params: "n, seed", Doc: "a uniformly random recursive tree",
		Validate: needN,
		key:      func(gs GraphSpec) graph.CorpusKey { return corpusKey("random-tree", gs.N, 0, 0, gs.Seed) },
		gen:      func(gs GraphSpec) (*graph.Graph, error) { return graph.RandomTree(gs.N, gs.Seed), nil },
	},
}

// familyIndex maps each family name to its entry, after filling in the
// entry's used-parameter set from its Params.
var familyIndex = indexFamilies()

func indexFamilies() map[string]*Family {
	index := make(map[string]*Family, len(families))
	for i := range families {
		f := &families[i]
		for _, item := range strings.Split(f.Params, ", ") {
			name, _, _ := strings.Cut(item, " ")
			j := slices.IndexFunc(params[:], func(p param) bool { return p.name == name })
			if j < 0 {
				panic(fmt.Sprintf("scenario: family %s consumes unknown parameter %q", f.Name, name))
			}
			f.uses |= 1 << j
		}
		index[f.Name] = f
	}
	return index
}

// baKey and baGen serve ba and huge-ba: huge-ba is ba at scale, so both
// name the same corpus entry and store image.
func baKey(gs GraphSpec) graph.CorpusKey { return corpusKey("ba", gs.N, gs.K, 0, gs.Seed) }

func baGen(gs GraphSpec) (*graph.Graph, error) {
	return graph.PreferentialAttachment(gs.N, gs.K, gs.Seed)
}

// corpusKey builds the corpus key of a family's graph from its integer
// parameters a and b, its float parameter f and its seed (0 when unused).
func corpusKey(family string, a, b int, f float64, seed int64) graph.CorpusKey {
	return graph.CorpusKey{Family: family, A: int64(a), B: int64(b), F: math.Float64bits(f), Seed: seed}
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

// pairs is the number of unordered node pairs among n, n(n-1)/2.
func pairs(n int) int { return satMulInt(n, n-1) / 2 }

// Tail exponents of the random families' edge bounds: a built graph exceeds
// its bound with probability about e^-tail. gnp joins its pairs
// independently, so Bernstein's inequality guarantees e^-gnpTail. A
// unit-disk graph's pairs are dependent (two pairs sharing a node near the
// square's edge are both less likely to join), so its margin is wider; the
// seed sweep in TestRandomFamilyEdgeBounds checks it.
const (
	gnpTail      = 20
	unitDiskTail = 80
)

// pairsBound bounds the edges of a graph joining each of n's pairs with
// probability prob: the mean m·prob plus Bernstein's deviation margin
// tail/3 + sqrt(tail²/9 + 2·tail·m·prob·(1-prob)), rounded up and capped at
// pairs(n). A probability outside [0, 1] (NaN included) reports pairs(n).
func pairsBound(n int, prob, tail float64) int {
	m := pairs(n)
	if !(prob >= 0 && prob <= 1) {
		return m
	}
	mean := float64(m) * prob
	bound := math.Ceil(mean + tail/3 + math.Sqrt(tail*tail/9+2*tail*mean*(1-prob)))
	if bound < float64(m) {
		return int(bound)
	}
	return m
}

// unitDiskEdges bounds the edges of the unit-disk graph on n uniform points
// of the unit square with radius r. Two points lie within r of each other
// with probability at most πr² (the square's edges only lower it), so the
// bound is pairsBound at that probability, capped at 1, with the wider tail.
func unitDiskEdges(n int, r float64) int {
	return pairsBound(n, math.Min(math.Pi*r*r, 1), unitDiskTail)
}

func gridNodes(gs GraphSpec) int { return satMulInt(gs.Rows, gs.Cols) }

func gridEdges(_ GraphSpec, nodes int) int { return satMulInt(2, nodes) }

// kPerNode estimates k edges per node, counting k = 0 as 1.
func kPerNode(gs GraphSpec, nodes int) int {
	k := gs.K
	if k == 0 {
		k = 1
	}
	return satMulInt(nodes, k)
}

// ApproxNodes estimates the node count the (validated) spec will build —
// an upper bound good enough for admission control in serving contexts,
// where an arbitrary client must not be able to commission an arbitrarily
// large graph. Arithmetic saturates at math.MaxInt, so absurd dimensions
// report absurd (never negative) estimates. Unknown families report their
// raw n.
func (gs GraphSpec) ApproxNodes() int {
	if f, ok := familyIndex[gs.Family]; ok && f.nodes != nil {
		return f.nodes(gs)
	}
	return max(gs.N, 0)
}

// ApproxEdges estimates the edge count the (validated) spec will build —
// an upper bound, for the same admission purpose: families whose edge count
// is superlinear in n (clique, lollipop, dense gnp/geometric) must be
// bounded by the memory they actually allocate, not their node count. For
// the random families (gnp, geometric, huge-geometric) it is the expected
// count plus a deviation margin (see pairsBound), so a built graph exceeds
// it only with negligible probability.
func (gs GraphSpec) ApproxEdges() int {
	nodes := gs.ApproxNodes()
	if f, ok := familyIndex[gs.Family]; ok && f.edges != nil {
		return f.edges(gs, nodes)
	}
	return nodes
}

// Families returns the family table sorted by name.
func Families() []Family {
	return slices.Clone(families)
}

// FamilyTable renders the family table as aligned help text, one line per
// family — the single listing cmd/graphgen -families and cmd/scenarioctl
// -families both print.
func FamilyTable() string {
	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "%-14s (%s) — %s\n", f.Name, f.Params, f.Doc)
	}
	return b.String()
}

// FamilyNames returns the comma-separated sorted family names, for help text.
func FamilyNames() string {
	var names []string
	for _, f := range families {
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
	f, ok := familyIndex[gs.Family]
	if !ok {
		return fmt.Errorf("unknown graph family %q (have: %s)", gs.Family, FamilyNames())
	}
	for i, p := range params {
		if f.uses&(1<<i) == 0 && p.value(&gs) != nil {
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
	if f, ok := familyIndex[gs.Family]; ok {
		for i, p := range params {
			if f.uses&(1<<i) == 0 {
				p.clear(&gs)
			}
		}
	}
	return gs
}

// Build constructs the graph through the corpus: one lookup under the
// family's key, generating on a miss.
func (gs GraphSpec) Build(c *graph.Corpus) (*graph.Graph, error) {
	if err := gs.Validate(); err != nil {
		return nil, err
	}
	f := familyIndex[gs.Family]
	return c.Get(f.key(gs), func() (*graph.Graph, error) { return f.gen(gs) })
}
