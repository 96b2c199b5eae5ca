package graph

import (
	"math"
	"slices"
	"testing"
)

// sameEdges reports whether two graphs have identical edge sets (by index).
func sameEdges(a, b *Graph) bool {
	return a.N() == b.N() && slices.Equal(a.Edges(), b.Edges())
}

func TestPreferentialAttachment(t *testing.T) {
	const n, m = 200, 3
	g, err := PreferentialAttachment(n, m, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	if g.N() != n {
		t.Fatalf("n = %d, want %d", g.N(), n)
	}
	m0 := m + 1
	want := m0*(m0-1)/2 + (n-m0)*m
	if g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d (seed clique + %d attachments each)", g.NumEdges(), want, m)
	}
	if _, comps := Components(g); comps != 1 {
		t.Fatalf("graph has %d components, want connected", comps)
	}
	for u := m0; u < n; u++ {
		if g.Degree(u) < m {
			t.Fatalf("node %d has degree %d < m=%d", u, g.Degree(u), m)
		}
	}
	// Determinism: same seed reproduces the graph, another seed differs.
	again, err := PreferentialAttachment(n, m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdges(g, again) {
		t.Fatal("same seed produced different graphs")
	}
	other, err := PreferentialAttachment(n, m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sameEdges(g, other) {
		t.Fatal("different seeds produced identical graphs")
	}
	if _, err := PreferentialAttachment(10, 0, 1); err == nil {
		t.Error("m = 0 not rejected")
	}
	if _, err := PreferentialAttachment(10, 10, 1); err == nil {
		t.Error("m >= n not rejected")
	}
}

func TestRandomGeometric(t *testing.T) {
	const n = 300
	const r = 0.15
	g, err := RandomGeometric(n, r, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	// Reference check against the documented sampling order (node u draws x
	// then y) with brute-force O(n²) distance comparisons: the cell binning
	// must change nothing.
	rng := newRNG(9)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for u := 0; u < n; u++ {
		xs[u] = rng.Float64()
		ys[u] = rng.Float64()
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			want := dx*dx+dy*dy <= r*r
			if got := g.HasEdge(u, v); got != want {
				t.Fatalf("edge (%d,%d): got %v, brute force says %v", u, v, got, want)
			}
		}
	}
	again, err := RandomGeometric(n, r, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdges(g, again) {
		t.Fatal("same seed produced different graphs")
	}
	if _, err := RandomGeometric(10, 0, 1); err == nil {
		t.Error("radius 0 not rejected")
	}
	if _, err := RandomGeometric(10, 1.5, 1); err == nil {
		t.Error("radius > 1 not rejected")
	}
	// A tiny radius must not allocate a 1/r² cell grid for a handful of
	// points (the grid is capped at ~sqrt(n) a side).
	tiny, err := RandomGeometric(100, 1e-10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.NumEdges() != 0 {
		t.Errorf("radius 1e-10 produced %d edges on 100 points", tiny.NumEdges())
	}
}

func TestWattsStrogatz(t *testing.T) {
	const n, k = 100, 4
	g, err := WattsStrogatz(n, k, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	if g.NumEdges() != n*k/2 {
		t.Fatalf("edges = %d, want exactly %d (rewiring preserves the count)", g.NumEdges(), n*k/2)
	}
	for u := 0; u < n; u++ {
		if g.Degree(u) < k/2 {
			t.Fatalf("node %d has degree %d < k/2=%d (originating endpoints are kept)", u, g.Degree(u), k/2)
		}
	}
	again, err := WattsStrogatz(n, k, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdges(g, again) {
		t.Fatal("same seed produced different graphs")
	}

	// beta = 0 is the exact ring lattice for any seed.
	lattice, err := WattsStrogatz(n, k, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(n)
	for j := 1; j <= k/2; j++ {
		for u := 0; u < n; u++ {
			b.AddEdge(u, (u+j)%n)
		}
	}
	if !sameEdges(lattice, mustBuild(b)) {
		t.Fatal("beta = 0 is not the ring lattice")
	}

	if _, err := WattsStrogatz(10, 3, 0.1, 1); err == nil {
		t.Error("odd k not rejected")
	}
	if _, err := WattsStrogatz(10, 10, 0.1, 1); err == nil {
		t.Error("k >= n not rejected")
	}
	if _, err := WattsStrogatz(10, 4, 1.5, 1); err == nil {
		t.Error("beta > 1 not rejected")
	}
	if _, err := WattsStrogatz(10, 4, math.NaN(), 1); err == nil {
		t.Error("beta = NaN not rejected")
	}
}
