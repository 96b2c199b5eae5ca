package graph

import (
	"math"
	"testing"
	"testing/quick"
)

// checkSimple validates the structural invariants every built graph must
// satisfy: sorted adjacency, symmetry, no self-loops, correct back ports.
func checkSimple(t *testing.T, g *Graph) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		nb := g.Neighbors(u)
		for k, v := range nb {
			if int(v) == u {
				t.Fatalf("self loop at %d", u)
			}
			if k > 0 && nb[k-1] >= v {
				t.Fatalf("adjacency of %d not strictly sorted", u)
			}
			if !g.HasEdge(int(v), u) {
				t.Fatalf("edge %d-%d not symmetric", u, v)
			}
			if g.Neighbors(int(v))[g.BackPort(u, k)] != int32(u) {
				t.Fatalf("back port wrong for (%d,%d)", u, k)
			}
		}
	}
	// Identities unique and positive.
	seen := make(map[int64]bool, g.N())
	for u := 0; u < g.N(); u++ {
		id := g.ID(u)
		if id <= 0 || seen[id] {
			t.Fatalf("bad identity %d at node %d", id, u)
		}
		seen[id] = true
	}
	// Degree sum = 2|E|.
	sum := 0
	for u := 0; u < g.N(); u++ {
		sum += g.Degree(u)
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*edges %d", sum, 2*g.NumEdges())
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0)
	if _, err := b.Build(); err == nil {
		t.Error("self-loop not rejected")
	}
	b = NewBuilder(3)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Error("out-of-range edge not rejected")
	}
	b = NewBuilder(2)
	b.SetID(0, 7)
	b.SetID(1, 7)
	if _, err := b.Build(); err == nil {
		t.Error("duplicate identity not rejected")
	}
	b = NewBuilder(1)
	b.SetID(0, 0)
	if _, err := b.Build(); err == nil {
		t.Error("non-positive identity not rejected")
	}
	b = NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, must be deduped
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", g.NumEdges())
	}
}

// completeBinaryTree returns the complete binary tree on n nodes using heap
// indexing (node u has children 2u+1 and 2u+2).
func completeBinaryTree(n int) *Graph {
	b := NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(u, (u-1)/2)
	}
	return mustBuild(b)
}

func TestGenerators(t *testing.T) {
	cyc, err := Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := GNP(200, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := RandomRegular(100, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name      string
		g         *Graph
		wantN     int
		wantEdges int // -1 to skip
		wantMaxD  int // -1 to skip
	}{
		{"empty", mustBuild(NewBuilder(5)), 5, 0, 0},
		{"path", Path(6), 6, 5, 2},
		{"cycle", cyc, 10, 10, 2},
		{"complete", Complete(7), 7, 21, 6},
		{"star", Star(9), 9, 8, 8},
		{"grid", Grid(3, 4), 12, 17, 4},
		{"torus", torus, 20, 40, 4},
		{"hypercube", cube, 16, 32, 4},
		{"bintree", completeBinaryTree(15), 15, 14, 3},
		{"randomtree", RandomTree(50, 1), 50, 49, -1},
		{"caterpillar", Caterpillar(5, 3), 20, 19, 5},
		{"lollipop", Lollipop(5, 4), 9, 14, -1},
		{"gnp", gnp, 200, -1, -1},
		{"regular", reg, 100, 200, 4},
		{"forest", ForestUnion(60, 3, 3), 60, -1, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkSimple(t, tt.g)
			if tt.g.N() != tt.wantN {
				t.Errorf("N = %d, want %d", tt.g.N(), tt.wantN)
			}
			if tt.wantEdges >= 0 && tt.g.NumEdges() != tt.wantEdges {
				t.Errorf("edges = %d, want %d", tt.g.NumEdges(), tt.wantEdges)
			}
			if tt.wantMaxD >= 0 && tt.g.MaxDegree() != tt.wantMaxD {
				t.Errorf("maxdeg = %d, want %d", tt.g.MaxDegree(), tt.wantMaxD)
			}
		})
	}
}

func TestRandomRegularIsRegular(t *testing.T) {
	for _, d := range []int{2, 3, 6, 9} {
		n := 60
		if n*d%2 != 0 {
			n++
		}
		g, err := RandomRegular(n, d, int64(d))
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		checkSimple(t, g)
		for u := 0; u < g.N(); u++ {
			if g.Degree(u) != d {
				t.Fatalf("d=%d: node %d has degree %d", d, u, g.Degree(u))
			}
		}
	}
}

func TestGNPEdgeCount(t *testing.T) {
	n, p := 400, 0.02
	g, err := GNP(n, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	want := p * float64(n*(n-1)/2)
	got := float64(g.NumEdges())
	if got < want*0.7 || got > want*1.3 {
		t.Errorf("GNP edge count %v too far from expectation %v", got, want)
	}
	// Determinism.
	g2, err := GNP(n, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("GNP not deterministic for fixed seed")
	}
	// p=0 and p=1 extremes.
	g0, err := GNP(50, 0, 1)
	if err != nil || g0.NumEdges() != 0 {
		t.Errorf("GNP(50,0) edges = %d, err = %v", g0.NumEdges(), err)
	}
	g1, err := GNP(50, 1, 1)
	if err != nil || g1.NumEdges() != 50*49/2 {
		t.Errorf("GNP(50,1) edges = %d, err = %v", g1.NumEdges(), err)
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := GNP(50, p, 1); err == nil {
			t.Errorf("GNP(50, %v) not rejected", p)
		}
	}
}

func TestForestUnionArboricity(t *testing.T) {
	for k := 1; k <= 4; k++ {
		g := ForestUnion(200, k, int64(k))
		checkSimple(t, g)
		_, hi := ArboricityBounds(g)
		// Union of k forests has arboricity <= k, so degeneracy <= 2k-1.
		d, _ := Degeneracy(g)
		if d > 2*k-1 {
			t.Errorf("k=%d: degeneracy %d > 2k-1", k, d)
		}
		if hi > 2*k-1 {
			t.Errorf("k=%d: arboricity upper bound %d > 2k-1", k, hi)
		}
	}
}

func TestDegeneracy(t *testing.T) {
	cyc, _ := Cycle(8)
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", mustBuild(NewBuilder(4)), 0},
		{"path", Path(5), 1},
		{"tree", RandomTree(40, 9), 1},
		{"cycle", cyc, 2},
		{"clique", Complete(6), 5},
		{"grid", Grid(5, 5), 2},
		{"star", Star(10), 1},
	}
	for _, tt := range tests {
		if d, order := Degeneracy(tt.g); d != tt.want || len(order) != tt.g.N() {
			t.Errorf("%s: degeneracy = %d (order %d nodes), want %d", tt.name, d, len(order), tt.want)
		}
	}
}

func TestComponentsAndDiameter(t *testing.T) {
	g := DisjointUnion(Path(4), Complete(3), mustBuild(NewBuilder(2)))
	checkSimple(t, g)
	_, c := Components(g)
	if c != 4 {
		t.Errorf("components = %d, want 4", c)
	}
	if d := Diameter(g); d != -1 {
		t.Errorf("diameter of disconnected graph = %d, want -1", d)
	}
	if d := Diameter(Path(5)); d != 4 {
		t.Errorf("path diameter = %d, want 4", d)
	}
	if d := Diameter(Complete(5)); d != 1 {
		t.Errorf("clique diameter = %d, want 1", d)
	}
	g2, _ := Cycle(8)
	if d := Diameter(g2); d != 4 {
		t.Errorf("cycle diameter = %d, want 4", d)
	}
}

func TestWithShuffledIDs(t *testing.T) {
	g := Grid(5, 5)
	h, err := WithShuffledIDs(g, 10_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, h)
	if h.MaxIDValue() <= int64(g.N()) {
		t.Log("shuffled ids happen to be small; acceptable but unlikely")
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) != h.HasEdge(u, v) {
				t.Fatal("shuffling ids changed adjacency")
			}
		}
	}
	if _, err := WithShuffledIDs(g, 3, 1); err == nil {
		t.Error("maxID < n not rejected")
	}
}

func TestPackIDs(t *testing.T) {
	f := func(a, b uint32) bool {
		x := int64(a%(1<<31-1)) + 1
		y := int64(b%(1<<31-1)) + 1
		p := PackIDs(x, y)
		return p>>31 == x && p&MaxID == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := Grid(3, 3)
	es := g.Edges()
	if len(es) != g.NumEdges() {
		t.Fatalf("Edges() returned %d, want %d", len(es), g.NumEdges())
	}
	for i, e := range es {
		if e.U >= e.V {
			t.Fatal("edge not canonical")
		}
		if i > 0 && !(es[i-1].U < e.U || (es[i-1].U == e.U && es[i-1].V < e.V)) {
			t.Fatal("edges not sorted")
		}
	}
}

// TestCSRDirectedEdgeNumbering pins the dense directed-edge numbering the
// simulation engine's flat message lanes rely on: AdjOffset tiles
// [0, 2|E|), and ReverseEdges(u)[k] is exactly the slot of the reverse edge.
func TestCSRDirectedEdgeNumbering(t *testing.T) {
	gnp, err := GNP(150, 0.05, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{gnp, Star(30), Path(12), Complete(9), mustBuild(NewBuilder(4))} {
		prev := 0
		for u := 0; u < g.N(); u++ {
			if got := g.AdjOffset(u); got != prev {
				t.Fatalf("AdjOffset(%d) = %d, want %d", u, got, prev)
			}
			prev += g.Degree(u)
			rev := g.ReverseEdges(u)
			if len(rev) != g.Degree(u) {
				t.Fatalf("ReverseEdges(%d) has %d entries for degree %d", u, len(rev), g.Degree(u))
			}
			for k := range rev {
				v := g.Neighbors(u)[k]
				want := g.AdjOffset(int(v)) + g.BackPort(u, k)
				if int(rev[k]) != want {
					t.Fatalf("ReverseEdges(%d)[%d] = %d, want %d", u, k, rev[k], want)
				}
			}
		}
		if prev != 2*g.NumEdges() {
			t.Fatalf("degree sum %d does not tile 2|E| = %d", prev, 2*g.NumEdges())
		}
	}
}

// TestPrecomputedLookups checks the Build-time caches against full scans.
func TestPrecomputedLookups(t *testing.T) {
	g, err := WithShuffledIDs(mustBuild(NewBuilder(64)), 1<<20, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wantMax int64
	for u := 0; u < g.N(); u++ {
		if id := g.ID(u); id > wantMax {
			wantMax = id
		}
	}
	if g.MaxIDValue() != wantMax {
		t.Fatalf("MaxIDValue = %d, want %d", g.MaxIDValue(), wantMax)
	}
	if mustBuild(NewBuilder(0)).MaxIDValue() != 0 {
		t.Fatal("empty graph MaxIDValue should be 0")
	}
}

// TestBuilderDeduplicatesArcs checks that duplicate AddEdge calls (in either
// orientation) collapse to one edge in the CSR layout.
func TestBuilderDeduplicatesArcs(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 5; i++ {
		b.AddEdge(0, 1)
		b.AddEdge(1, 0)
	}
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees after dedup: %d, %d; want 1, 1", g.Degree(0), g.Degree(1))
	}
	checkSimple(t, g)
}
