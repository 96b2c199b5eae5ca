package graph

import (
	"fmt"
	"slices"
)

// PackIDs packs two identities (each in [1, MaxID]) into a single identity
// for a derived-graph node. The packing is order-preserving lexicographically
// and injective. Inputs outside [1, MaxID] panic: the runtime lifts pack
// identities deep inside a simulation with no error path, and a loud failure
// beats two distinct virtual nodes silently colliding on one identity (the
// scenario layer rejects such graph/algorithm pairings at validation time).
func PackIDs(a, b int64) int64 {
	if a < 1 || a > MaxID || b < 1 || b > MaxID {
		panic(fmt.Sprintf("graph: PackIDs(%d, %d) outside [1, %d]", a, b, MaxID))
	}
	return a<<31 | b
}

// UnpackIDs is the inverse of PackIDs.
func UnpackIDs(p int64) (a, b int64) { return p >> 31, p & MaxID }

// LineGraph returns the line graph L(g): one node per edge of g, with two
// nodes adjacent iff the edges share an endpoint. The i-th returned node
// corresponds to edges[i] of the also-returned canonical edge list, and
// carries identity PackIDs(idU, idV) with idU < idV, matching the virtual
// identities used by the line-graph lift.
//
// The construction is CSR-direct: no edge→index map and no Builder re-sort.
// Edge indices are lexicographic in (min endpoint, max endpoint), so the
// incident-edge list of every vertex is already sorted in port order, and the
// neighbours of line-node e = {u, v} are the merge of u's and v's incident
// lists (which share exactly e itself) — each adjacency segment is emitted
// sorted in one pass.
func LineGraph(g *Graph) (*Graph, []Edge, error) {
	if g.MaxIDValue() > MaxID {
		return nil, nil, fmt.Errorf("graph: line graph needs identities <= %d for pair packing, got max %d",
			MaxID, g.MaxIDValue())
	}
	edges := g.Edges()
	m := len(edges)
	ids := make([]int64, m)
	for i, e := range edges {
		u, v := g.ID(int(e.U)), g.ID(int(e.V))
		if u > v {
			u, v = v, u
		}
		ids[i] = PackIDs(u, v)
	}
	// inc[d] is the undirected-edge index of directed edge d. Both directions
	// of edge i are stamped when the lexicographically first endpoint reaches
	// it, so inc[AdjOffset(u):][k] is ascending for every vertex u: ports with
	// v < u inherit the (v, u) block order, ports with v > u the (u, v) one,
	// and every (·<u) block precedes the (u, ·) block.
	inc := make([]int32, 2*g.NumEdges())
	next := int32(0)
	for u := 0; u < g.N(); u++ {
		off := g.AdjOffset(u)
		rev := g.ReverseEdges(u)
		for k, v := range g.Neighbors(u) {
			if int(v) > u {
				inc[off+k] = next
				inc[rev[k]] = next
				next++
			}
		}
	}
	loff := make([]int32, m+1)
	for i, e := range edges {
		loff[i+1] = loff[i] + int32(g.Degree(int(e.U))+g.Degree(int(e.V))-2)
	}
	data := make([]int32, loff[m])
	for i, e := range edges {
		a := inc[g.AdjOffset(int(e.U)):][:g.Degree(int(e.U))]
		b := inc[g.AdjOffset(int(e.V)):][:g.Degree(int(e.V))]
		w := loff[i]
		x, y := 0, 0
		for x < len(a) || y < len(b) {
			var id int32
			if y == len(b) || (x < len(a) && a[x] < b[y]) {
				id = a[x]
				x++
			} else {
				id = b[y]
				y++
			}
			if id != int32(i) {
				data[w] = id
				w++
			}
		}
	}
	lg, err := newFromSortedCSR(ids, loff, data)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: line graph: %w", err)
	}
	return lg, edges, nil
}

// Power returns the k-th power g^k: same nodes and identities, with an edge
// between any two distinct nodes at distance at most k in g.
//
// The construction is CSR-direct: each node's BFS ball (one flat scratch
// queue reused across nodes, stamp-reset) is sorted in place and written
// straight into the power graph's adjacency array — no Builder arc
// accumulation, counting sort or deduplication pass.
func Power(g *Graph, k int) (*Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: power exponent %d < 1", k)
	}
	n := g.N()
	ids := make([]int64, n)
	for u := 0; u < n; u++ {
		ids[u] = g.ID(u)
	}
	off := make([]int32, n+1)
	data := make([]int32, 0, 2*g.NumEdges())
	// BFS to depth k from every node; queue[1:] is exactly u's neighbourhood
	// in g^k, sorted before being appended to the CSR array.
	dist := make([]int, n)
	queue := make([]int32, 0, n)
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for u := 0; u < n; u++ {
		queue = append(queue[:0], int32(u))
		stamp[u] = u
		dist[u] = 0
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			if dist[x] == k {
				continue
			}
			for _, y := range g.Neighbors(int(x)) {
				if stamp[y] != u {
					stamp[y] = u
					dist[y] = dist[x] + 1
					queue = append(queue, y)
				}
			}
		}
		reach := queue[1:]
		slices.Sort(reach)
		data = append(data, reach...)
		off[u+1] = int32(len(data))
	}
	return newFromSortedCSR(ids, off, slices.Clip(data))
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
// Copy u_i carries identity PackIDs(ID(u), i), matching the product lift.
func ProductDegPlusOne(g *Graph) (*Graph, []CliqueCopy, error) {
	if g.MaxIDValue() > MaxID {
		return nil, nil, fmt.Errorf("graph: clique product needs identities <= %d for pair packing, got max %d",
			MaxID, g.MaxIDValue())
	}
	n := g.N()
	offset := make([]int, n+1)
	for u := 0; u < n; u++ {
		offset[u+1] = offset[u] + g.Degree(u) + 1
	}
	total := offset[n]
	copies := make([]CliqueCopy, total)
	b := NewBuilder(total)
	for u := 0; u < n; u++ {
		du := g.Degree(u)
		for i := 0; i <= du; i++ {
			node := offset[u] + i
			copies[node] = CliqueCopy{V: int32(u), I: int32(i + 1)}
			b.SetID(node, PackIDs(g.ID(u), int64(i+1)))
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
		return nil, nil, fmt.Errorf("graph: clique product: %w", err)
	}
	return pg, copies, nil
}

// InducedSubgraph returns the subgraph of g induced by the nodes with
// keep[u] == true, preserving identities, together with the mapping from new
// node indices to original indices.
func InducedSubgraph(g *Graph, keep []bool) (*Graph, []int32, error) {
	if len(keep) != g.N() {
		return nil, nil, fmt.Errorf("graph: keep mask has %d entries for %d nodes", len(keep), g.N())
	}
	orig := make([]int32, 0)
	newIdx := make([]int32, g.N())
	for u := range newIdx {
		newIdx[u] = -1
	}
	for u := 0; u < g.N(); u++ {
		if keep[u] {
			newIdx[u] = int32(len(orig))
			orig = append(orig, int32(u))
		}
	}
	b := NewBuilder(len(orig))
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

// BFSDistances returns the distances from src to every node (-1 when
// unreachable).
func BFSDistances(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
