// Package problems defines the output conventions of the classical LOCAL
// problems treated in the paper — MIS, (α,β)-ruling sets, vertex and edge
// coloring, maximal matching, strong list coloring — together with global
// validity checkers used by tests and benchmarks.
//
// Following Section 2 of Korman–Sereni–Viennot, a problem is a set of
// triplets (G, x, y); the checkers here decide membership for a concrete
// output vector. The matching checker deliberately uses the paper's
// output-value semantics ("u and v are matched iff they are adjacent,
// y(u) = y(v), and no other neighbour carries that value") rather than a
// structural edge list, so that the pruning algorithm P_MM of Observation
// 3.3 and the checker agree exactly.
package problems

import (
	"fmt"
	"sort"

	"github.com/unilocal/unilocal/internal/graph"
)

// EdgeClaim is the output value of a matching algorithm at a node: the
// identities of the two endpoints of its matched edge, with A < B. The zero
// EdgeClaim means "unmatched".
type EdgeClaim struct {
	A, B int64
}

// Claimed reports whether the claim designates an edge.
func (c EdgeClaim) Claimed() bool { return c != EdgeClaim{} }

// NewEdgeClaim returns the canonical claim for the edge between identities a
// and b.
func NewEdgeClaim(a, b int64) EdgeClaim {
	if a > b {
		a, b = b, a
	}
	return EdgeClaim{A: a, B: b}
}

// SLCColor is an output value of the strong list coloring problem of
// Section 5.2: a base color C paired with a multiplicity index J. The zero
// value is not a legal color.
type SLCColor struct {
	C, J int
}

// Bools coerces a slice of algorithm outputs to booleans; nil counts as
// false (the "restricted to i rounds" convention assigns an arbitrary
// output, which we canonicalise to the zero value).
func Bools(outputs []any) ([]bool, error) {
	res := make([]bool, len(outputs))
	for i, o := range outputs {
		if o == nil {
			continue
		}
		b, ok := o.(bool)
		if !ok {
			return nil, fmt.Errorf("problems: output %d is %T, want bool", i, o)
		}
		res[i] = b
	}
	return res, nil
}

// Ints coerces a slice of algorithm outputs to ints; nil becomes 0.
func Ints(outputs []any) ([]int, error) {
	res := make([]int, len(outputs))
	for i, o := range outputs {
		if o == nil {
			continue
		}
		v, ok := o.(int)
		if !ok {
			return nil, fmt.Errorf("problems: output %d is %T, want int", i, o)
		}
		res[i] = v
	}
	return res, nil
}

// ValidMIS checks that the indicated set is a maximal independent set of g.
func ValidMIS(g *graph.Graph, in []bool) error {
	if len(in) != g.N() {
		return fmt.Errorf("problems: MIS output has %d entries for %d nodes", len(in), g.N())
	}
	for u := 0; u < g.N(); u++ {
		hasNb := false
		for _, v := range g.Neighbors(u) {
			if in[v] {
				hasNb = true
				if in[u] {
					return fmt.Errorf("problems: MIS not independent at edge %d-%d", u, v)
				}
			}
		}
		if !in[u] && !hasNb {
			return fmt.Errorf("problems: MIS not maximal at node %d", u)
		}
	}
	return nil
}

// ValidRulingSet checks that the indicated set S is an (alpha, beta)-ruling
// set of g: members are pairwise at distance >= alpha and every non-member
// is within distance beta of a member. MIS is the special case (2, 1).
func ValidRulingSet(g *graph.Graph, in []bool, alpha, beta int) error {
	if len(in) != g.N() {
		return fmt.Errorf("problems: ruling set output has %d entries for %d nodes", len(in), g.N())
	}
	if alpha < 1 || beta < 0 {
		return fmt.Errorf("problems: invalid ruling parameters (%d, %d)", alpha, beta)
	}
	// Pairwise distance >= alpha: BFS from each member to depth alpha-1.
	for s := 0; s < g.N(); s++ {
		if !in[s] {
			continue
		}
		dist := boundedBFS(g, []int{s}, alpha-1)
		for v, d := range dist {
			if v != s && d >= 0 && in[v] {
				return fmt.Errorf("problems: ruling set members %d and %d at distance %d < alpha=%d", s, v, d, alpha)
			}
		}
	}
	// Domination within beta: multi-source BFS from S.
	srcs := make([]int, 0)
	for u := 0; u < g.N(); u++ {
		if in[u] {
			srcs = append(srcs, u)
		}
	}
	dist := boundedBFS(g, srcs, beta)
	for u := 0; u < g.N(); u++ {
		if !in[u] && dist[u] < 0 {
			return fmt.Errorf("problems: node %d not dominated within beta=%d", u, beta)
		}
	}
	return nil
}

// boundedBFS returns distances from the sources up to the given depth, or -1
// beyond it.
func boundedBFS(g *graph.Graph, srcs []int, depth int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, len(srcs))
	for _, s := range srcs {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if dist[u] == depth {
			continue
		}
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ValidColoring checks that colors is a proper vertex coloring of g with all
// colors in [1, palette]; pass palette <= 0 to skip the range check.
func ValidColoring(g *graph.Graph, colors []int, palette int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("problems: coloring has %d entries for %d nodes", len(colors), g.N())
	}
	for u := 0; u < g.N(); u++ {
		if colors[u] < 1 || (palette > 0 && colors[u] > palette) {
			return fmt.Errorf("problems: node %d has color %d outside [1,%d]", u, colors[u], palette)
		}
		for _, v := range g.Neighbors(u) {
			if colors[v] == colors[u] {
				return fmt.Errorf("problems: edge %d-%d monochromatic (color %d)", u, v, colors[u])
			}
		}
	}
	return nil
}

// MaxColor returns the largest color used (0 for an empty slice).
func MaxColor(colors []int) int {
	m := 0
	for _, c := range colors {
		if c > m {
			m = c
		}
	}
	return m
}

// Matched reports whether adjacent nodes u and v are matched: both output
// the canonical claim for the edge {u, v} and no other neighbour of either
// carries that value.
//
// This strengthens the paper's opaque-value predicate ("y(u) = y(v) and
// y(w) != y(u) for every other neighbour w") by additionally requiring the
// shared value to be the canonical claim NewEdgeClaim(Id(u), Id(v)). The
// strengthening makes the gluing property of the matching pruner robust:
// a canonically matched pair can never be invalidated retroactively, because
// no third node's legal output ever equals the pair's claim. Algorithms that
// emit canonical claims (all of ours) satisfy both predicates.
func Matched(g *graph.Graph, y []any, u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	want := NewEdgeClaim(g.ID(u), g.ID(v))
	if normalizeClaim(y[u]) != want || normalizeClaim(y[v]) != want {
		return false
	}
	for _, w := range g.Neighbors(u) {
		if int(w) != v && normalizeClaim(y[w]) == want {
			return false
		}
	}
	for _, w := range g.Neighbors(v) {
		if int(w) != u && normalizeClaim(y[w]) == want {
			return false
		}
	}
	return true
}

func normalizeClaim(v any) EdgeClaim {
	if v == nil {
		return EdgeClaim{}
	}
	if c, ok := v.(EdgeClaim); ok {
		return c
	}
	// Non-claim outputs never equal anything, encoded as an impossible claim.
	return EdgeClaim{A: -1, B: -1}
}

// ValidMaximalMatching checks the MM condition of Section 2: every node is
// either matched to a neighbour, or all of its neighbours are matched.
func ValidMaximalMatching(g *graph.Graph, y []any) error {
	if len(y) != g.N() {
		return fmt.Errorf("problems: matching output has %d entries for %d nodes", len(y), g.N())
	}
	matchedTo := make([]int, g.N())
	for u := range matchedTo {
		matchedTo[u] = -1
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if Matched(g, y, u, int(v)) {
				matchedTo[u] = int(v)
				break
			}
		}
	}
	for u := 0; u < g.N(); u++ {
		if matchedTo[u] >= 0 {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if matchedTo[v] < 0 {
				return fmt.Errorf("problems: matching not maximal at edge %d-%d", u, int(v))
			}
		}
	}
	return nil
}

// EdgeColors converts per-port edge-coloring outputs — a []int or a []any
// of ints at each node, one entry per port — into one color per canonical
// edge, aligned with g.Edges(). Both endpoints of an edge must report the
// same color; a non-int entry reads as color 0, which no palette admits.
func EdgeColors(g *graph.Graph, outputs []any) ([]int, error) {
	if len(outputs) != g.N() {
		return nil, fmt.Errorf("problems: edge coloring output has %d entries for %d nodes", len(outputs), g.N())
	}
	ports := make([][]int, g.N())
	for u, o := range outputs {
		switch o := o.(type) {
		case []int:
			ports[u] = o
		case []any:
			ports[u] = make([]int, len(o))
			for p, c := range o {
				ports[u][p], _ = c.(int)
			}
		}
		if len(ports[u]) != g.Degree(u) {
			return nil, fmt.Errorf("problems: node %d output %T has no color per port (degree %d)", u, o, g.Degree(u))
		}
	}
	colors := make([]int, 0, g.NumEdges())
	for u, cs := range ports {
		for p, v := range g.Neighbors(u) {
			if v <= int32(u) {
				continue
			}
			if cv := ports[v][g.BackPort(u, p)]; cv != cs[p] {
				return nil, fmt.Errorf("problems: edge %d-%d colored %d at one end, %d at the other", u, v, cs[p], cv)
			}
			colors = append(colors, cs[p])
		}
	}
	return colors, nil
}

// ValidEdgeColoring checks a proper edge coloring given as one color per
// canonical edge (aligned with g.Edges()), with palette as for ValidColoring.
func ValidEdgeColoring(g *graph.Graph, colors []int, palette int) error {
	edges := g.Edges()
	if len(colors) != len(edges) {
		return fmt.Errorf("problems: edge coloring has %d entries for %d edges", len(colors), len(edges))
	}
	// Two edges conflict iff they share an endpoint: sort each node's
	// incident colors and scan for duplicates (flat slices, no per-node maps).
	byNode := make([][]int, g.N())
	for i, e := range edges {
		c := colors[i]
		if c < 1 || (palette > 0 && c > palette) {
			return fmt.Errorf("problems: edge %v has color %d outside [1,%d]", e, c, palette)
		}
		byNode[e.U] = append(byNode[e.U], c)
		byNode[e.V] = append(byNode[e.V], c)
	}
	for u, cs := range byNode {
		sort.Ints(cs)
		for i := 1; i < len(cs); i++ {
			if cs[i] == cs[i-1] {
				return fmt.Errorf("problems: node %d sees color %d twice", u, cs[i])
			}
		}
	}
	return nil
}
