package graphtest

import (
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
)

// checkSimple validates the structural invariants of a built graph through
// its public accessors: sorted symmetric adjacency, no self-loops, correct
// back ports, unique positive identities.
func checkSimple(t *testing.T, g *graph.Graph) {
	t.Helper()
	seen := make(map[int64]bool, g.N())
	for u := 0; u < g.N(); u++ {
		nb := g.Neighbors(u)
		for k, v := range nb {
			if int(v) == u || (k > 0 && nb[k-1] >= v) {
				t.Fatalf("adjacency of %d not strictly sorted or has a self loop", u)
			}
			if g.Neighbors(int(v))[g.BackPort(u, k)] != int32(u) {
				t.Fatalf("back port wrong for (%d,%d)", u, k)
			}
		}
		if id := g.ID(u); id <= 0 || seen[id] {
			t.Fatalf("bad identity %d at node %d", id, u)
		}
		seen[g.ID(u)] = true
	}
}

func TestLineGraph(t *testing.T) {
	g := graph.Grid(3, 3)
	lg, edges, err := LineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, lg)
	if lg.N() != g.NumEdges() {
		t.Fatalf("line graph has %d nodes, want %d", lg.N(), g.NumEdges())
	}
	// Brute-force adjacency: edges adjacent iff they share an endpoint.
	for i := 0; i < lg.N(); i++ {
		for j := i + 1; j < lg.N(); j++ {
			share := edges[i].U == edges[j].U || edges[i].U == edges[j].V ||
				edges[i].V == edges[j].U || edges[i].V == edges[j].V
			if share != lg.HasEdge(i, j) {
				t.Fatalf("line graph adjacency wrong for %v, %v", edges[i], edges[j])
			}
		}
	}
	// Identities are packed endpoint identities.
	for i, e := range edges {
		a, b := g.ID(int(e.U)), g.ID(int(e.V))
		if a > b {
			a, b = b, a
		}
		if lg.ID(i) != graph.PackIDs(a, b) {
			t.Fatalf("line graph identity mismatch at %d", i)
		}
	}
	// Max degree of L(G) is at most 2(Δ-1).
	if lg.MaxDegree() > 2*(g.MaxDegree()-1) {
		t.Errorf("line graph max degree %d > 2(Δ-1) = %d", lg.MaxDegree(), 2*(g.MaxDegree()-1))
	}
}

func TestPower(t *testing.T) {
	g := graph.Path(7)
	p2, err := Power(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, p2)
	// Adjacency iff 1 <= |u-v| <= 2 on the path.
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			want := u != v && u-v <= 2 && v-u <= 2
			if p2.HasEdge(u, v) != want {
				t.Fatalf("power adjacency wrong for %d,%d", u, v)
			}
		}
	}
	if _, err := Power(g, 0); err == nil {
		t.Error("Power(k=0) not rejected")
	}
	// Power of a cycle.
	c, _ := graph.Cycle(9)
	p3, err := Power(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 9; u++ {
		if p3.Degree(u) != 6 {
			t.Fatalf("cycle^3 degree %d at %d, want 6", p3.Degree(u), u)
		}
	}
}

func TestProductDegPlusOne(t *testing.T) {
	g := graph.Path(4)
	pg, copies, err := ProductDegPlusOne(g)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, pg)
	// Size: sum of deg+1 = 2E + N.
	want := 2*g.NumEdges() + g.N()
	if pg.N() != want {
		t.Fatalf("product has %d nodes, want %d", pg.N(), want)
	}
	// Check adjacency semantics by brute force.
	for a := 0; a < pg.N(); a++ {
		for b := a + 1; b < pg.N(); b++ {
			ca, cb := copies[a], copies[b]
			var wantAdj bool
			switch {
			case ca.V == cb.V:
				wantAdj = true // same clique
			case g.HasEdge(int(ca.V), int(cb.V)):
				limit := int32(min(g.Degree(int(ca.V)), g.Degree(int(cb.V))) + 1)
				wantAdj = ca.I == cb.I && ca.I <= limit
			}
			if pg.HasEdge(a, b) != wantAdj {
				t.Fatalf("product adjacency wrong for %+v,%+v", ca, cb)
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := graph.Grid(4, 4)
	keep := make([]bool, g.N())
	for u := 0; u < g.N(); u += 2 {
		keep[u] = true
	}
	sg, orig, err := InducedSubgraph(g, keep)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, sg)
	if len(orig) != sg.N() {
		t.Fatalf("orig mapping length %d != %d", len(orig), sg.N())
	}
	for i := 0; i < sg.N(); i++ {
		if sg.ID(i) != g.ID(int(orig[i])) {
			t.Fatal("identity not preserved")
		}
		for j := i + 1; j < sg.N(); j++ {
			if sg.HasEdge(i, j) != g.HasEdge(int(orig[i]), int(orig[j])) {
				t.Fatal("induced adjacency wrong")
			}
		}
	}
	if _, _, err := InducedSubgraph(g, make([]bool, 3)); err == nil {
		t.Error("mask length mismatch not rejected")
	}
}

// TestPackingRange pins the identity range of the pair-packing
// constructions: identities drawn from [1, 2^40] exceed graph.MaxID, so the
// line graph and the clique product reject the graph with an error (where
// graph.PackIDs would panic), while the power, which packs nothing, accepts
// it.
func TestPackingRange(t *testing.T) {
	h, err := graph.WithShuffledIDs(graph.Grid(8, 8), 1<<40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxIDValue() <= graph.MaxID {
		t.Fatalf("max id %d unexpectedly within the packed range", h.MaxIDValue())
	}
	if _, _, err := LineGraph(h); err == nil {
		t.Error("LineGraph accepted identities beyond the packing range")
	}
	if _, _, err := ProductDegPlusOne(h); err == nil {
		t.Error("ProductDegPlusOne accepted identities beyond the packing range")
	}
	if _, err := Power(h, 2); err != nil {
		t.Errorf("Power should accept huge identities (no packing): %v", err)
	}
}
