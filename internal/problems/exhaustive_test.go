package problems

import (
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
)

// These tests validate the validity checkers themselves by exhaustive
// enumeration on tiny graphs: every subset/assignment is classified both by
// the checker and by a from-the-definition predicate, and the two must
// agree everywhere. The rest of the repository trusts these checkers, so
// they get the strongest test available.

func tinyGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	cyc, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := graph.GNP(6, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.GNP(6, 0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []*graph.Graph{
		graph.Path(5), cyc, graph.Star(5), graph.Complete(4), g1, g2,
		graph.DisjointUnion(graph.Path(2), graph.Path(1)),
	}
}

func TestValidMISAgainstEnumeration(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		n := g.N()
		for mask := 0; mask < 1<<uint(n); mask++ {
			in := make([]bool, n)
			for u := 0; u < n; u++ {
				in[u] = mask>>uint(u)&1 == 1
			}
			// From-the-definition predicate.
			want := true
			for u := 0; u < n && want; u++ {
				dominated := in[u]
				for _, v := range g.Neighbors(u) {
					if in[u] && in[v] {
						want = false
						break
					}
					if in[v] {
						dominated = true
					}
				}
				if !dominated {
					want = false
				}
			}
			got := ValidMIS(g, in) == nil
			if got != want {
				t.Fatalf("graph %d mask %b: checker says %v, definition says %v", gi, mask, got, want)
			}
		}
	}
}

func TestValidRulingSetAgainstEnumeration(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		n := g.N()
		for _, beta := range []int{1, 2} {
			for mask := 0; mask < 1<<uint(n); mask++ {
				in := make([]bool, n)
				for u := 0; u < n; u++ {
					in[u] = mask>>uint(u)&1 == 1
				}
				want := true
				for u := 0; u < n && want; u++ {
					dist := graph.BFSDistances(g, u)
					if in[u] {
						for v := 0; v < n; v++ {
							if v != u && in[v] && dist[v] >= 0 && dist[v] < 2 {
								want = false
								break
							}
						}
					} else {
						dominated := false
						for v := 0; v < n; v++ {
							if in[v] && dist[v] >= 0 && dist[v] <= beta {
								dominated = true
								break
							}
						}
						if !dominated {
							want = false
						}
					}
				}
				got := ValidRulingSet(g, in, 2, beta) == nil
				if got != want {
					t.Fatalf("graph %d beta %d mask %b: checker %v, definition %v", gi, beta, mask, got, want)
				}
			}
		}
	}
}

func TestValidColoringAgainstEnumeration(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		n := g.N()
		if n > 5 {
			continue // 4^6 assignments are fine too, but keep it quick
		}
		const palette = 3
		total := 1
		for i := 0; i < n; i++ {
			total *= palette
		}
		for code := 0; code < total; code++ {
			colors := make([]int, n)
			c := code
			for u := 0; u < n; u++ {
				colors[u] = c%palette + 1
				c /= palette
			}
			want := true
			for _, e := range g.Edges() {
				if colors[e.U] == colors[e.V] {
					want = false
					break
				}
			}
			got := ValidColoring(g, colors, palette) == nil
			if got != want {
				t.Fatalf("graph %d code %d: checker %v, definition %v", gi, code, got, want)
			}
		}
	}
}
