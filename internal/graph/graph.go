// Package graph provides the static network topologies on which LOCAL-model
// algorithms run: an immutable adjacency representation with unique node
// identities, a builder, generators for the standard benchmark families, and
// the identity packing of the derived nodes that the lifts of Section 5 of
// Korman–Sereni–Viennot simulate (line graphs, the clique product). The
// explicit derived graphs those lifts are checked against live in graphtest.
//
// Nodes are indexed 0..N()-1; every node additionally carries a positive
// 64-bit identity, unique within the graph, which is what the distributed
// algorithms actually see. All methods on Graph are safe for concurrent use
// because a built Graph is immutable.
//
// Internally a Graph is stored in compressed sparse row (CSR) form: one flat
// []int32 of neighbour indices plus an offset table, with parallel flat
// arrays for the reverse-port and reverse-edge tables. Every directed edge
// (u, port k) therefore has a dense index AdjOffset(u)+k in [0, 2|E|), which
// the simulation engine uses to address flat per-port message lanes.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// MaxID is the largest identity a node of a base (non-derived) graph may
// carry. Base identities are kept below 2^31 so that derived graphs (line
// graphs, products) can pack a pair of identities into a single int64
// identity; the packed identities themselves may be as large as MaxPackedID.
const MaxID = int64(1)<<31 - 1

// MaxPackedID bounds the identities of derived graphs (PackIDs output).
const MaxPackedID = int64(1)<<62 - 1

// Graph is an immutable simple undirected graph with unique node identities.
// The zero value is an empty graph with no nodes.
type Graph struct {
	ids []int64

	// CSR adjacency: the neighbours of u are data[off[u]:off[u+1]], sorted
	// increasingly. back and cross are indexed like data: for the directed
	// edge e = off[u]+k with v = data[e], back[e] is the port under which u
	// appears at v, and cross[e] = off[v] + back[e] is the dense index of the
	// reverse directed edge (v -> u).
	off   []int32
	data  []int32
	back  []int32
	cross []int32

	maxDeg int
	edges  int
	maxID  int64

	// mapped is non-nil when the CSR arrays are zero-copy views into an
	// mmap'ed store image rather than Go heap slices; it retains the mapping
	// (unmapped by a finalizer when the Graph becomes unreachable) and makes
	// HeapBytes report only the resident footprint.
	mapped *mapping
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.ids) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

// MaxDegree returns the maximum degree Δ of the graph (0 for an empty graph).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// ID returns the identity of node u.
func (g *Graph) ID(u int) int64 { return g.ids[u] }

// MaxIDValue returns the largest identity in the graph, the parameter m of
// the paper (0 for an empty graph). It is precomputed at Build.
func (g *Graph) MaxIDValue() int64 { return g.maxID }

// Neighbors returns the neighbour indices of u, sorted increasingly. The
// returned slice is shared with the graph's internal storage and must not be
// modified.
func (g *Graph) Neighbors(u int) []int32 { return g.data[g.off[u]:g.off[u+1]] }

// BackPort returns the port under which u appears at its k-th neighbour:
// if v = Neighbors(u)[k], then Neighbors(v)[BackPort(u, k)] == u.
func (g *Graph) BackPort(u, k int) int { return int(g.back[int(g.off[u])+k]) }

// AdjOffset returns the dense index of u's port 0 in the directed-edge
// numbering: port k of u is directed edge AdjOffset(u)+k, and the indices of
// all nodes together tile [0, 2*NumEdges()).
func (g *Graph) AdjOffset(u int) int { return int(g.off[u]) }

// ReverseEdges returns, for each port k of u, the dense directed-edge index
// of the reverse edge: with v = Neighbors(u)[k], ReverseEdges(u)[k] ==
// AdjOffset(v) + BackPort(u, k). The slice is shared with the graph's
// internal storage and must not be modified.
func (g *Graph) ReverseEdges(u int) []int32 { return g.cross[g.off[u]:g.off[u+1]] }

// NeighborIDs appends the identities of u's neighbours, in port order, to dst
// and returns the extended slice.
func (g *Graph) NeighborIDs(dst []int64, u int) []int64 {
	for _, v := range g.Neighbors(u) {
		dst = append(dst, g.ids[v])
	}
	return dst
}

// HasEdge reports whether nodes u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return int(a[i]) >= v })
	return i < len(a) && int(a[i]) == v
}

// CSRBytes returns the raw size of the graph's flat arrays (identities plus
// the four CSR tables) — the bytes a store image's payload occupies, and the
// heap cost of holding the graph in memory without mmap.
func (g *Graph) CSRBytes() int64 {
	return 8*int64(len(g.ids)) +
		4*(int64(len(g.off))+int64(len(g.data))+int64(len(g.back))+int64(len(g.cross)))
}

// HeapBytes estimates the graph's resident Go-heap footprint, the quantity a
// byte-bounded Corpus budgets. A heap-built graph costs its CSR arrays; an
// mmap-backed graph costs almost nothing on the heap — its arrays are views
// into the page cache, reclaimable by the OS — which is exactly what lets a
// bounded corpus hold out-of-core graphs far larger than its budget.
func (g *Graph) HeapBytes() int64 {
	if g.mapped != nil {
		return 512 // struct header, offsets into the mapping
	}
	return g.CSRBytes()
}

// Edge is an undirected edge given by its endpoint indices with U < V.
type Edge struct {
	U, V int32
}

// Edges returns the edges of g in lexicographic order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				es = append(es, Edge{U: int32(u), V: v})
			}
		}
	}
	return es
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// By default node u receives identity u+1; SetID overrides this.
type Builder struct {
	ids []int64
	// arcs holds both directions of every AddEdge call, unsorted and possibly
	// duplicated; Build sorts, deduplicates and flattens them into CSR form.
	// Accumulating flat arcs instead of per-node sets keeps AddEdge
	// allocation-free on average and Build O(m log Δ).
	arcSrc []int32
	arcDst []int32
	bad    []badEdge
}

// NewBuilder returns a builder for a graph on n nodes and no edges.
func NewBuilder(n int) *Builder {
	b := &Builder{ids: make([]int64, n)}
	for u := 0; u < n; u++ {
		b.ids[u] = int64(u) + 1
	}
	return b
}

// SetID assigns identity id to node u.
func (b *Builder) SetID(u int, id int64) { b.ids[u] = id }

// AddEdge records the undirected edge {u, v}. Duplicate additions are
// ignored; self-loops and out-of-range endpoints surface as errors at Build.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 || u >= len(b.ids) || v >= len(b.ids) || u == v {
		b.markBad(u, v)
		return
	}
	b.arcSrc = append(b.arcSrc, int32(u), int32(v))
	b.arcDst = append(b.arcDst, int32(v), int32(u))
}

// badEdges collects invalid AddEdge calls for error reporting.
type badEdge struct{ u, v int }

var errBadEdge = errors.New("graph: invalid edge")

func (b *Builder) markBad(u, v int) {
	b.bad = append(b.bad, badEdge{u, v})
}

// validateIDs rejects out-of-range and duplicate identities and returns the
// maximum identity.
func validateIDs(ids []int64) (int64, error) {
	seen := make(map[int64]int32, len(ids))
	var maxID int64
	for u, id := range ids {
		if id <= 0 || id > MaxPackedID {
			return 0, fmt.Errorf("graph: node %d has out-of-range identity %d", u, id)
		}
		if prev, dup := seen[id]; dup {
			return 0, fmt.Errorf("graph: nodes %d and %d share identity %d", prev, u, id)
		}
		seen[id] = int32(u)
		if id > maxID {
			maxID = id
		}
	}
	return maxID, nil
}

// finishCSR derives everything a Graph precomputes from its sorted CSR
// adjacency (g.off, g.data): the reverse-port and reverse-edge tables, the
// maximum degree and the edge count.
func (g *Graph) finishCSR() {
	n := len(g.ids)
	w := int32(len(g.data))
	g.edges = int(w) / 2
	g.back = make([]int32, w)
	g.cross = make([]int32, w)
	for u := 0; u < n; u++ {
		if deg := int(g.off[u+1] - g.off[u]); deg > g.maxDeg {
			g.maxDeg = deg
		}
		for e := g.off[u]; e < g.off[u+1]; e++ {
			v := g.data[e]
			seg := g.data[g.off[v]:g.off[v+1]]
			i, _ := slices.BinarySearch(seg, int32(u))
			g.back[e] = int32(i)
			g.cross[e] = g.off[v] + int32(i)
		}
	}
}

// newGeneratedCSR assembles a Graph from a sorted, deduplicated, symmetric
// CSR adjacency emitted directly by a streaming generator. Identities are
// the Builder default u+1, which needs no validation — at 10^8 nodes the
// validation map would cost more than the coordinates the generator sampled.
func newGeneratedCSR(n int, off, data []int32) *Graph {
	ids := make([]int64, n)
	for u := range ids {
		ids[u] = int64(u) + 1
	}
	g := &Graph{ids: ids, off: off, data: data, maxID: int64(n)}
	g.finishCSR()
	return g
}

// newFromStoredCSR assembles a Graph from the fully precomputed arrays of a
// store image, possibly zero-copy views into an mmap'ed file (m non-nil). No
// validation and no finishCSR: the image was written from a validated Graph
// and its integrity was checksum-verified by the loader, so loading a
// 10^8-node image stays O(1) heap.
func newFromStoredCSR(ids []int64, off, data, back, cross []int32, maxDeg, edges int, maxID int64, m *mapping) *Graph {
	return &Graph{
		ids:    ids,
		off:    off,
		data:   data,
		back:   back,
		cross:  cross,
		maxDeg: maxDeg,
		edges:  edges,
		maxID:  maxID,
		mapped: m,
	}
}

// Build validates the accumulated data and returns the immutable graph.
func (b *Builder) Build() (*Graph, error) {
	if len(b.bad) > 0 {
		return nil, fmt.Errorf("%w: {%d,%d} (n=%d)", errBadEdge, b.bad[0].u, b.bad[0].v, len(b.ids))
	}
	n := len(b.ids)
	maxID, err := validateIDs(b.ids)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		ids:   append([]int64(nil), b.ids...),
		maxID: maxID,
	}

	// Counting sort of the arcs by source into CSR segments.
	off := make([]int32, n+1)
	for _, u := range b.arcSrc {
		off[u+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	data := make([]int32, len(b.arcSrc))
	cursor := append([]int32(nil), off[:n]...)
	for i, u := range b.arcSrc {
		data[cursor[u]] = b.arcDst[i]
		cursor[u]++
	}

	// Sort each segment, then deduplicate in place (write index never passes
	// the read index, so the compaction can reuse data's storage).
	w := int32(0)
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		seg := data[lo:hi]
		slices.Sort(seg)
		start := w
		for i := range seg {
			if i == 0 || seg[i] != seg[i-1] {
				data[w] = seg[i]
				w++
			}
		}
		off[u] = start
	}
	off[n] = w
	g.off = off
	g.data = data[:w:w]
	g.finishCSR()
	return g, nil
}
