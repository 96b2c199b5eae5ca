// Package graphtest holds the graphs and reference solutions that tests
// check shipped code against: the explicit derived graphs of Section 5 of
// the paper (line graph, power, clique product), whose virtual lifts are
// what the simulator runs, plus induced subgraphs, small fixtures and the
// greedy reference solutions (MIS, coloring, matching). Every construction
// goes through the public graph.Builder, so it shares no code with the lifts
// it checks.
package graphtest

import (
	"fmt"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/problems"
)

func mustBuild(b *graph.Builder) *graph.Graph {
	g, err := b.Build()
	if err != nil {
		panic("graphtest: " + err.Error())
	}
	return g
}

// Empty returns the edgeless graph on n nodes.
func Empty(n int) *graph.Graph { return mustBuild(graph.NewBuilder(n)) }

// NodeWithID returns the node carrying identity id, or -1.
func NodeWithID(g *graph.Graph, id int64) int {
	for u := 0; u < g.N(); u++ {
		if g.ID(u) == id {
			return u
		}
	}
	return -1
}

// LineGraph returns the line graph L(g): one node per edge of g, with two
// nodes adjacent iff the edges share an endpoint. The i-th returned node
// corresponds to edges[i] of the also-returned canonical edge list, and
// carries identity graph.PackIDs(idU, idV) with idU < idV, matching the
// virtual identities of the line-graph lift. Identities above graph.MaxID
// cannot be packed and are an error.
func LineGraph(g *graph.Graph) (*graph.Graph, []graph.Edge, error) {
	if g.MaxIDValue() > graph.MaxID {
		return nil, nil, fmt.Errorf("graphtest: line graph needs identities <= %d for pair packing, got max %d",
			graph.MaxID, g.MaxIDValue())
	}
	edges := g.Edges()
	idx := make(map[graph.Edge]int, len(edges))
	for i, e := range edges {
		idx[e] = i
	}
	b := graph.NewBuilder(len(edges))
	for i, e := range edges {
		u, v := g.ID(int(e.U)), g.ID(int(e.V))
		if u > v {
			u, v = v, u
		}
		b.SetID(i, graph.PackIDs(u, v))
	}
	for i, e := range edges {
		for _, endpoint := range [2]int32{e.U, e.V} {
			for _, w := range g.Neighbors(int(endpoint)) {
				f := graph.Edge{U: endpoint, V: w}
				if f.U > f.V {
					f.U, f.V = f.V, f.U
				}
				if j := idx[f]; j != i {
					b.AddEdge(i, j)
				}
			}
		}
	}
	lg, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("graphtest: line graph: %w", err)
	}
	return lg, edges, nil
}

// Power returns the k-th power g^k: same nodes and identities, with an edge
// between any two distinct nodes at distance at most k in g.
func Power(g *graph.Graph, k int) (*graph.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("graphtest: power exponent %d < 1", k)
	}
	b := graph.NewBuilder(g.N())
	for u := 0; u < g.N(); u++ {
		b.SetID(u, g.ID(u))
		for v, d := range graph.BFSDistances(g, u) {
			if d >= 1 && d <= k && v > u {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// CliqueCopy identifies one node of the clique product: copy I (1-based,
// I <= deg+1) of original node V.
type CliqueCopy struct {
	V int32
	I int32
}

// ProductDegPlusOne returns the graph G x K_{deg+1} of Section 5.1 of the
// paper: every node u of g is replaced by a clique C_u on deg(u)+1 copies
// u_1..u_{deg(u)+1}, and for every edge (u,v) of g the copies u_i and v_i are
// adjacent for every i <= 1+min(deg(u), deg(v)). Maximal independent sets of
// the product correspond one-to-one to (deg+1)-colorings of g.
//
// Copy u_i carries identity graph.PackIDs(ID(u), i), matching the product
// lift. Identities above graph.MaxID cannot be packed and are an error.
func ProductDegPlusOne(g *graph.Graph) (*graph.Graph, []CliqueCopy, error) {
	if g.MaxIDValue() > graph.MaxID {
		return nil, nil, fmt.Errorf("graphtest: clique product needs identities <= %d for pair packing, got max %d",
			graph.MaxID, g.MaxIDValue())
	}
	n := g.N()
	offset := make([]int, n+1)
	for u := 0; u < n; u++ {
		offset[u+1] = offset[u] + g.Degree(u) + 1
	}
	total := offset[n]
	copies := make([]CliqueCopy, total)
	b := graph.NewBuilder(total)
	for u := 0; u < n; u++ {
		du := g.Degree(u)
		for i := 0; i <= du; i++ {
			node := offset[u] + i
			copies[node] = CliqueCopy{V: int32(u), I: int32(i + 1)}
			b.SetID(node, graph.PackIDs(g.ID(u), int64(i+1)))
		}
		// Clique on the copies of u.
		for i := 0; i <= du; i++ {
			for j := i + 1; j <= du; j++ {
				b.AddEdge(offset[u]+i, offset[u]+j)
			}
		}
		// Cross edges u_i -- v_i for i <= 1+min(deg u, deg v).
		for _, v := range g.Neighbors(u) {
			if int(v) < u {
				continue
			}
			m := min(du, g.Degree(int(v))) + 1
			for i := 0; i < m; i++ {
				b.AddEdge(offset[u]+i, offset[int(v)]+i)
			}
		}
	}
	pg, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("graphtest: clique product: %w", err)
	}
	return pg, copies, nil
}

// InducedSubgraph returns the subgraph of g induced by the nodes with
// keep[u] == true, preserving identities, together with the mapping from new
// node indices to original indices.
func InducedSubgraph(g *graph.Graph, keep []bool) (*graph.Graph, []int32, error) {
	if len(keep) != g.N() {
		return nil, nil, fmt.Errorf("graphtest: keep mask has %d entries for %d nodes", len(keep), g.N())
	}
	var orig []int32
	newIdx := make([]int32, g.N())
	for u := 0; u < g.N(); u++ {
		if keep[u] {
			newIdx[u] = int32(len(orig))
			orig = append(orig, int32(u))
		}
	}
	b := graph.NewBuilder(len(orig))
	for i, u := range orig {
		b.SetID(i, g.ID(int(u)))
		for _, v := range g.Neighbors(int(u)) {
			if keep[v] && u < v {
				b.AddEdge(i, int(newIdx[v]))
			}
		}
	}
	sg, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sg, orig, nil
}

// GreedyMIS returns the lexicographic greedy MIS by node index.
func GreedyMIS(g *graph.Graph) []bool {
	in := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		in[u] = true
		for _, v := range g.Neighbors(u) {
			if in[v] {
				in[u] = false
				break
			}
		}
	}
	return in
}

// GreedyColoring returns the greedy (degree+1)-coloring by node index, with
// colors from 1.
func GreedyColoring(g *graph.Graph) []int {
	colors := make([]int, g.N())
	used := make([]bool, g.MaxDegree()+2)
	for u := 0; u < g.N(); u++ {
		nbs := g.Neighbors(u)
		for _, v := range nbs {
			used[colors[v]] = true
		}
		c := 1
		for used[c] {
			c++
		}
		colors[u] = c
		for _, v := range nbs {
			used[colors[v]] = false
		}
	}
	return colors
}

// GreedyMatching returns a maximal matching as EdgeClaim outputs, scanning
// edges lexicographically.
func GreedyMatching(g *graph.Graph) []any {
	y := make([]any, g.N())
	taken := make([]bool, g.N())
	for _, e := range g.Edges() {
		if !taken[e.U] && !taken[e.V] {
			taken[e.U], taken[e.V] = true, true
			claim := problems.NewEdgeClaim(g.ID(int(e.U)), g.ID(int(e.V)))
			y[e.U], y[e.V] = claim, claim
		}
	}
	for u := range y {
		if y[u] == nil {
			y[u] = problems.EdgeClaim{}
		}
	}
	return y
}
