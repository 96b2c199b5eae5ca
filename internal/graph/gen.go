package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"github.com/unilocal/unilocal/internal/mathutil"
)

// newRNG derives a deterministic PCG stream for a generator from a seed.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), mathutil.SplitMix64(uint64(seed))))
}

func mustBuild(b *Builder) *Graph {
	g, err := b.Build()
	if err != nil {
		// Generators only call mustBuild on internally consistent data; an
		// error here is a programming bug in this package, not user input.
		panic("graph: internal generator bug: " + err.Error())
	}
	return g
}

// Empty returns the edgeless graph on n nodes.
func Empty(n int) *Graph { return mustBuild(NewBuilder(n)) }

// Path returns the path on n nodes (0-1-2-...-n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u+1 < n; u++ {
		b.AddEdge(u, u+1)
	}
	return mustBuild(b)
}

// Cycle returns the cycle on n >= 3 nodes.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
	}
	return b.Build()
}

// Complete returns the clique K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return mustBuild(b)
}

// Star returns the star with centre 0 and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return mustBuild(b)
}

// Grid returns the r x c grid graph.
func Grid(r, c int) *Graph {
	b := NewBuilder(r * c)
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				b.AddEdge(at(i, j), at(i+1, j))
			}
			if j+1 < c {
				b.AddEdge(at(i, j), at(i, j+1))
			}
		}
	}
	return mustBuild(b)
}

// Torus returns the r x c torus (grid with wraparound); r, c >= 3.
func Torus(r, c int) (*Graph, error) {
	if r < 3 || c < 3 {
		return nil, fmt.Errorf("graph: torus needs r,c >= 3, got %dx%d", r, c)
	}
	b := NewBuilder(r * c)
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			b.AddEdge(at(i, j), at((i+1)%r, j))
			b.AddEdge(at(i, j), at(i, (j+1)%c))
		}
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes.
func Hypercube(dim int) (*Graph, error) {
	if dim < 0 || dim > 20 {
		return nil, fmt.Errorf("graph: hypercube dimension %d out of range [0,20]", dim)
	}
	n := 1 << uint(dim)
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for k := 0; k < dim; k++ {
			v := u ^ (1 << uint(k))
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// CompleteBinaryTree returns the complete binary tree on n nodes using heap
// indexing (node u has children 2u+1 and 2u+2).
func CompleteBinaryTree(n int) *Graph {
	b := NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(u, (u-1)/2)
	}
	return mustBuild(b)
}

// RandomTree returns a uniformly random recursive tree on n nodes: node u
// attaches to a uniform node among 0..u-1.
func RandomTree(n int, seed int64) *Graph {
	rng := newRNG(seed)
	b := NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(u, rng.IntN(u))
	}
	return mustBuild(b)
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs pendant leaves attached to every spine node.
func Caterpillar(spine, legs int) *Graph {
	n := spine + spine*legs
	b := NewBuilder(n)
	for u := 0; u+1 < spine; u++ {
		b.AddEdge(u, u+1)
	}
	leaf := spine
	for u := 0; u < spine; u++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(u, leaf)
			leaf++
		}
	}
	return mustBuild(b)
}

// Lollipop returns a clique of size k with a pendant path of tail nodes.
func Lollipop(k, tail int) *Graph {
	b := NewBuilder(k + tail)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v)
		}
	}
	prev := 0
	for t := 0; t < tail; t++ {
		b.AddEdge(prev, k+t)
		prev = k + t
	}
	return mustBuild(b)
}

// GNP returns an Erdős–Rényi random graph G(n, p) sampled with geometric
// skipping, so the cost is proportional to the number of edges rather than
// n^2.
func GNP(n int, p float64, seed int64) (*Graph, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: GNP probability %v out of [0,1]", p)
	}
	b := NewBuilder(n)
	if p > 0 {
		rng := newRNG(seed)
		// Iterate over the pairs (u,v), u<v, in lexicographic order, skipping
		// ahead by geometric jumps.
		u, v := 0, 0
		for u < n-1 {
			skip := 1
			if p < 1 {
				// Geometric(p) via inversion.
				skip = int(fastGeometric(rng, p))
			}
			v += skip
			for v >= n {
				u++
				if u >= n-1 {
					// Row n-1 and beyond contain no pairs (u < v <= n-1).
					u = n
					break
				}
				v = u + 1 + (v - n)
			}
			if u >= n {
				break
			}
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// fastGeometric samples from Geometric(p) on {1,2,...}.
func fastGeometric(rng *rand.Rand, p float64) int64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	g := int64(math.Log(u)/math.Log(1-p)) + 1
	if g < 1 {
		g = 1
	}
	return g
}

// RandomRegular returns a random d-regular simple graph on n nodes using the
// configuration model with edge-swap repair. It requires n*d even and d < n.
func RandomRegular(n, d int, seed int64) (*Graph, error) {
	if d < 0 || d >= n {
		return nil, fmt.Errorf("graph: regular degree %d out of range for n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: n*d must be even, got n=%d d=%d", n, d)
	}
	rng := newRNG(seed)
	stubs := make([]int32, 0, n*d)
	for u := 0; u < n; u++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, int32(u))
		}
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		pairs := make([]stubPair, 0, len(stubs)/2)
		for i := 0; i+1 < len(stubs); i += 2 {
			a, bb := stubs[i], stubs[i+1]
			if a > bb {
				a, bb = bb, a
			}
			pairs = append(pairs, stubPair{a, bb})
		}
		// Repair conflicts (self-loops and duplicates) by random swaps.
		if repairPairs(rng, pairs) {
			b := NewBuilder(n)
			for _, p := range pairs {
				b.AddEdge(int(p.a), int(p.b))
			}
			return b.Build()
		}
	}
	return nil, fmt.Errorf("graph: random regular generation failed for n=%d d=%d", n, d)
}

// stubPair is one edge of a configuration-model pairing.
type stubPair struct{ a, b int32 }

// repairPairs removes self-loops and duplicate edges from a random pairing by
// repeatedly swapping endpoints of conflicting pairs with random other pairs.
// It reports whether a simple pairing was reached.
func repairPairs(rng *rand.Rand, pairs []stubPair) bool {
	key := func(a, b int32) int64 {
		if a > b {
			a, b = b, a
		}
		return int64(a)<<32 | int64(b)
	}
	count := make(map[int64]int, len(pairs))
	bad := make([]int, 0)
	for i, p := range pairs {
		if p.a == p.b {
			bad = append(bad, i)
			continue
		}
		k := key(p.a, p.b)
		count[k]++
		if count[k] > 1 {
			bad = append(bad, i)
		}
	}
	for iter := 0; iter < 100*len(pairs)+1000 && len(bad) > 0; iter++ {
		i := bad[len(bad)-1]
		j := rng.IntN(len(pairs))
		if i == j {
			continue
		}
		pi, pj := pairs[i], pairs[j]
		// Remove current contributions.
		if pi.a != pi.b {
			count[key(pi.a, pi.b)]--
		}
		if pj.a != pj.b {
			count[key(pj.a, pj.b)]--
		}
		// Swap one endpoint.
		ni := stubPair{pi.a, pj.b}
		nj := stubPair{pj.a, pi.b}
		ok := ni.a != ni.b && nj.a != nj.b
		if ok {
			ki, kj := key(ni.a, ni.b), key(nj.a, nj.b)
			if count[ki] > 0 || count[kj] > 0 || ki == kj {
				ok = false
			}
		}
		if !ok {
			// Restore and retry with another partner.
			if pi.a != pi.b {
				count[key(pi.a, pi.b)]++
			}
			if pj.a != pj.b {
				count[key(pj.a, pj.b)]++
			}
			continue
		}
		pairs[i], pairs[j] = ni, nj
		count[key(ni.a, ni.b)]++
		count[key(nj.a, nj.b)]++
		bad = bad[:len(bad)-1]
		// j might have been in bad; rebuild lazily when exhausted.
		if len(bad) == 0 {
			bad = bad[:0]
			for idx, p := range pairs {
				if p.a == p.b {
					bad = append(bad, idx)
					continue
				}
				if count[key(p.a, p.b)] > 1 {
					bad = append(bad, idx)
				}
			}
		}
	}
	return len(bad) == 0
}

// ForestUnion returns the union of k uniformly random recursive forests on n
// nodes; its arboricity is at most k. Each forest is a random recursive tree
// over a random permutation of the nodes.
func ForestUnion(n, k int, seed int64) *Graph {
	rng := newRNG(seed)
	b := NewBuilder(n)
	perm := make([]int, n)
	for f := 0; f < k; f++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for u := 1; u < n; u++ {
			b.AddEdge(perm[u], perm[rng.IntN(u)])
		}
	}
	return mustBuild(b)
}

// DisjointUnion returns the disjoint union of the given graphs, re-assigning
// identities 1..N to keep them unique.
func DisjointUnion(gs ...*Graph) *Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	b := NewBuilder(n)
	off := 0
	for _, g := range gs {
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if u < int(v) {
					b.AddEdge(off+u, off+int(v))
				}
			}
		}
		off += g.N()
	}
	return mustBuild(b)
}

// WithShuffledIDs returns a copy of g whose identities are distinct values
// drawn uniformly from [1, maxID]. It requires maxID in [N, MaxPackedID].
//
// With maxID == N the result is a uniform dense permutation of 1..N (every
// value collides until the rejection loop finds the remaining ones — the
// coupon-collector worst case, still O(n log n) expected draws). With maxID
// far above MaxID (the scenario layer's sparse-huge regime uses 2^40) the
// identities exceed what the pair-packing derived constructions can encode:
// LineGraph and ProductDegPlusOne reject such graphs, while Power and every
// direct simulation handle them unchanged.
func WithShuffledIDs(g *Graph, maxID int64, seed int64) (*Graph, error) {
	n := g.N()
	if maxID < int64(n) || maxID > MaxPackedID {
		return nil, fmt.Errorf("graph: maxID %d out of range [n=%d, %d]", maxID, n, MaxPackedID)
	}
	rng := newRNG(seed)
	used := make(map[int64]bool, n)
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for {
			id := rng.Int64N(maxID) + 1
			if !used[id] {
				used[id] = true
				b.SetID(u, id)
				break
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < int(v) {
				b.AddEdge(u, int(v))
			}
		}
	}
	return b.Build()
}

// WithClusteredIDs returns a copy of g whose identities are packed into
// `clusters` tight consecutive blocks spread uniformly across [1, maxID]: the
// adversarial regime of the scenario layer. Within a block identities differ
// by 1 (the worst case for identity-based symmetry breaking), while the
// blocks themselves sit in disjoint maxID/clusters-wide slots, so the
// identity range — the parameter m a uniform algorithm must discover — is as
// large as a sparse assignment's. Node-to-block assignment is a uniform
// permutation. clusters is clamped to N; each block holds ceil(N/clusters)
// identities, and maxID/clusters must leave room for one block per slot.
func WithClusteredIDs(g *Graph, clusters int, maxID int64, seed int64) (*Graph, error) {
	n := g.N()
	if clusters < 1 {
		return nil, fmt.Errorf("graph: clusters %d must be >= 1", clusters)
	}
	if clusters > n {
		clusters = n
	}
	if maxID < int64(n) || maxID > MaxPackedID {
		return nil, fmt.Errorf("graph: maxID %d out of range [n=%d, %d]", maxID, n, MaxPackedID)
	}
	width := int64((n + clusters - 1) / clusters)
	slot := maxID / int64(clusters)
	if slot < width {
		return nil, fmt.Errorf("graph: maxID %d leaves slots of %d ids for %d clusters of width %d",
			maxID, slot, clusters, width)
	}
	rng := newRNG(seed)
	bases := make([]int64, clusters)
	for c := range bases {
		lo := int64(c)*slot + 1
		bases[c] = lo + rng.Int64N(slot-width+1)
	}
	perm := rng.Perm(n)
	b := NewBuilder(n)
	for i, u := range perm {
		b.SetID(u, bases[i/int(width)]+int64(i)%width)
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < int(v) {
				b.AddEdge(u, int(v))
			}
		}
	}
	return b.Build()
}

// PreferentialAttachment returns a Barabási–Albert preferential-attachment
// graph: a clique on m+1 seed nodes, then each new node attaches to m
// distinct existing nodes chosen proportionally to their current degree
// (sampled as a uniform draw over edge endpoints). The result is connected
// with a power-law degree tail and degeneracy at most m. Requires 1 <= m < n.
//
// Generation is CSR-direct: the endpoint array the sampler needs anyway is
// the edge list, and it scatters straight into sorted CSR segments — no
// Builder arc accumulation, so peak memory is the output plus one cursor
// array, which is what makes the huge-ba scenario family feasible. The RNG
// stream and output graph are bit-identical to the historical Builder-based
// generator (guarded by TestGeneratorDigests).
func PreferentialAttachment(n, m int, seed int64) (*Graph, error) {
	if m < 1 || m >= n {
		return nil, fmt.Errorf("graph: attachment count %d out of range [1, n=%d)", m, n)
	}
	rng := newRNG(seed)
	m0 := m + 1
	// ends lists both endpoints of every edge so far; a uniform index into it
	// is a degree-proportional node draw. Pairs (2i, 2i+1) are the edges:
	// distinct by construction (the clique enumerates distinct pairs; a new
	// node's m targets are deduplicated and all predate it), self-loop free.
	ends := make([]int32, 0, m0*(m0-1)+2*(n-m0)*m)
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			ends = append(ends, int32(u), int32(v))
		}
	}
	targets := make([]int32, 0, m)
	for u := m0; u < n; u++ {
		targets = targets[:0]
		for len(targets) < m {
			t := ends[rng.IntN(len(ends))]
			dup := false
			for _, x := range targets {
				if x == t {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			ends = append(ends, int32(u), t)
		}
	}
	off, data := endsToCSR(n, ends)
	return newGeneratedCSR(n, off, data), nil
}

// endsToCSR counting-sorts an endpoint array (edge i = ends[2i], ends[2i+1];
// edges distinct, no self-loops) into a sorted symmetric CSR adjacency.
func endsToCSR(n int, ends []int32) (off, data []int32) {
	off = make([]int32, n+1)
	for _, e := range ends {
		off[e+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	data = make([]int32, len(ends))
	cursor := append([]int32(nil), off[:n]...)
	for i := 0; i+1 < len(ends); i += 2 {
		a, b := ends[i], ends[i+1]
		data[cursor[a]] = b
		cursor[a]++
		data[cursor[b]] = a
		cursor[b]++
	}
	for u := 0; u < n; u++ {
		slices.Sort(data[off[u]:off[u+1]])
	}
	return off, data
}

// RandomGeometric returns a random geometric (unit-disk) graph: n points
// sampled uniformly in the unit square (point u draws its x then its y
// coordinate, in node order), with an edge between every pair at Euclidean
// distance <= r. Cell binning keeps generation near-linear in the output
// size. Requires 0 < r <= 1.
//
// Generation is CSR-direct: one binning pass groups points into cells, a
// counting pass sizes every adjacency segment, and a second identical scan
// scatters neighbours straight into the output arrays — no Builder arc list,
// so peak memory is the coordinates plus the output itself, which is what
// makes the huge-geometric scenario family feasible. The RNG stream (and
// therefore the output graph) is bit-identical to the historical
// Builder-based generator (guarded by TestGeneratorDigests).
func RandomGeometric(n int, r float64, seed int64) (*Graph, error) {
	if !(r > 0 && r <= 1) {
		return nil, fmt.Errorf("graph: geometric radius %v out of (0, 1]", r)
	}
	rng := newRNG(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for u := 0; u < n; u++ {
		xs[u] = rng.Float64()
		ys[u] = rng.Float64()
	}
	// Cell side must be >= r for the 3x3 neighbourhood scan to be exhaustive;
	// fewer (larger) cells stay correct, so cap the grid at ~sqrt(n) a side —
	// a tiny radius must not allocate 1/r² buckets for n points.
	cells := int(1 / r)
	if maxCells := int(math.Sqrt(float64(n))) + 1; cells > maxCells {
		cells = maxCells
	}
	if cells < 1 {
		cells = 1
	}
	cellOf := func(x float64) int {
		c := int(x * float64(cells))
		if c >= cells {
			c = cells - 1
		}
		return c
	}
	// Counting-sort the points into cells (flat arrays, not per-cell slices).
	nc := cells * cells
	cellIdx := make([]int32, n)
	cellOff := make([]int32, nc+1)
	for u := 0; u < n; u++ {
		ci := int32(cellOf(ys[u])*cells + cellOf(xs[u]))
		cellIdx[u] = ci
		cellOff[ci+1]++
	}
	for c := 0; c < nc; c++ {
		cellOff[c+1] += cellOff[c]
	}
	cellNodes := make([]int32, n)
	cur := append([]int32(nil), cellOff[:nc]...)
	for u := 0; u < n; u++ {
		cellNodes[cur[cellIdx[u]]] = int32(u)
		cur[cellIdx[u]]++
	}
	// forPairs enumerates each qualifying pair (u, v), u < v, exactly once:
	// v is found in u's 3x3 cell neighbourhood, and the v > u guard both
	// halves the distance checks and deduplicates the symmetric visit.
	r2 := r * r
	forPairs := func(emit func(u int, v int32)) {
		for u := 0; u < n; u++ {
			cx, cy := int(cellIdx[u])%cells, int(cellIdx[u])/cells
			for dy := -1; dy <= 1; dy++ {
				ny := cy + dy
				if ny < 0 || ny >= cells {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					nx := cx + dx
					if nx < 0 || nx >= cells {
						continue
					}
					for _, v := range cellNodes[cellOff[ny*cells+nx]:cellOff[ny*cells+nx+1]] {
						if int(v) <= u {
							continue
						}
						ddx, ddy := xs[u]-xs[v], ys[u]-ys[v]
						if ddx*ddx+ddy*ddy <= r2 {
							emit(u, v)
						}
					}
				}
			}
		}
	}
	off := make([]int32, n+1)
	forPairs(func(u int, v int32) {
		off[u+1]++
		off[v+1]++
	})
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	data := make([]int32, off[n])
	cursor := append([]int32(nil), off[:n]...)
	forPairs(func(u int, v int32) {
		data[cursor[u]] = v
		cursor[u]++
		data[cursor[v]] = int32(u)
		cursor[v]++
	})
	for u := 0; u < n; u++ {
		slices.Sort(data[off[u]:off[u+1]])
	}
	return newGeneratedCSR(n, off, data), nil
}

// WattsStrogatz returns a Watts–Strogatz small-world graph: the ring lattice
// where each node connects to its k/2 nearest neighbours on each side, with
// every lattice edge independently rewired with probability beta to a
// uniform non-adjacent endpoint (keeping the originating lattice endpoint u
// of the arc (u, u+j) fixed, so the edge count stays exactly n*k/2 and every
// node keeps at least its k/2 originated edges). beta == 0 is the exact
// lattice; beta == 1
// approaches G(n, p) while keeping the minimum degree k/2. Requires k even,
// 2 <= k < n, and beta in [0, 1].
func WattsStrogatz(n, k int, beta float64, seed int64) (*Graph, error) {
	if k < 2 || k%2 != 0 || k >= n {
		return nil, fmt.Errorf("graph: lattice degree %d must be even and in [2, n=%d)", k, n)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("graph: rewiring probability %v out of [0, 1]", beta)
	}
	rng := newRNG(seed)
	type arc struct{ u, v int32 }
	pair := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)*int64(n) + int64(v)
	}
	edges := make([]arc, 0, n*k/2)
	adj := make(map[int64]bool, n*k/2)
	for j := 1; j <= k/2; j++ {
		for u := 0; u < n; u++ {
			v := (u + j) % n
			edges = append(edges, arc{int32(u), int32(v)})
			adj[pair(u, v)] = true
		}
	}
	if beta > 0 {
		for i := range edges {
			if rng.Float64() >= beta {
				continue
			}
			u, v := int(edges[i].u), int(edges[i].v)
			// A few rejection attempts; on very dense lattices a node can run
			// out of non-neighbours, in which case the edge stays.
			for attempt := 0; attempt < 64; attempt++ {
				w := rng.IntN(n)
				if w == u || adj[pair(u, w)] {
					continue
				}
				delete(adj, pair(u, v))
				adj[pair(u, w)] = true
				edges[i].v = int32(w)
				break
			}
		}
	}
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(int(e.u), int(e.v))
	}
	return b.Build()
}
