package core

import (
	"math/rand/v2"
	"sort"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/idindex"
	"github.com/unilocal/unilocal/internal/problems"
)

// decideAll evaluates the pruner at every node of g, with the given inputs
// and tentative outputs, by centrally building each radius-R ball. It
// returns the prune mask (the set W of the paper).
func decideAll(g *graph.Graph, p Pruner, inputs, outputs []any) []bool {
	pruned := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		pruned[u] = p.Decide(buildBall(g, p.Radius(), u, inputs, outputs)).Prune
	}
	return pruned
}

// buildBall gathers the radius-R ball around u centrally (test-only
// counterpart of the distributed gather phase).
func buildBall(g *graph.Graph, radius, u int, inputs, outputs []any) *Ball {
	dist := map[int]int{u: 0}
	queue := []int{u}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		if dist[x] < radius {
			for _, y := range g.Neighbors(x) {
				if _, seen := dist[int(y)]; !seen {
					dist[int(y)] = dist[x] + 1
					queue = append(queue, int(y))
				}
			}
		}
	}
	records := make([]BallRecord, 0, len(queue))
	dists := make([]int, 0, len(queue))
	for _, x := range queue {
		var in, out any
		if inputs != nil {
			in = inputs[x]
		}
		if outputs != nil {
			out = outputs[x]
		}
		records = append(records, BallRecord{
			ID:        g.ID(x),
			Input:     in,
			Tentative: out,
			Neighbors: g.NeighborIDs(nil, x),
		})
		dists = append(dists, dist[x])
	}
	return newBall(g.ID(u), records, dists)
}

// newBall assembles a ball from loose records and their distances from the
// centre (dist[i] belongs to records[i]; one record must carry ID =
// centerID); the transformer builds balls in place from its pooled arena
// instead. Entries are ordered canonically: the centre first, then by
// (distance, ID).
func newBall(centerID int64, records []BallRecord, dist []int) *Ball {
	refs := make([]ballRef, len(records))
	for i := range records {
		refs[i] = ballRef{rec: &records[i], dist: int32(dist[i])}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].rec.ID == centerID {
			return refs[j].rec.ID != centerID
		}
		if refs[j].rec.ID == centerID {
			return false
		}
		if refs[i].dist != refs[j].dist {
			return refs[i].dist < refs[j].dist
		}
		return refs[i].rec.ID < refs[j].rec.ID
	})
	b := &Ball{CenterID: centerID, refs: refs, index: new(idindex.Index)}
	b.index.Reset(len(refs))
	for i := range refs {
		b.index.Add(refs[i].rec.ID, int32(i))
	}
	return b
}

func boolsToAny(bs []bool) []any {
	out := make([]any, len(bs))
	for i, b := range bs {
		out[i] = b
	}
	return out
}

func testGraphSuite(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gnp, err := graph.GNP(70, 0.08, 13)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := graph.Cycle(15)
	return map[string]*graph.Graph{
		"path":   graph.Path(12),
		"cycle":  cyc,
		"star":   graph.Star(9),
		"clique": graph.Complete(8),
		"grid":   graph.Grid(5, 6),
		"gnp":    gnp,
		"tree":   graph.RandomTree(40, 7),
	}
}

func TestRulingSetPrunerSolutionDetection(t *testing.T) {
	for name, g := range testGraphSuite(t) {
		in := graphtest.GreedyMIS(g)
		pruned := decideAll(g, MISPruner(), nil, boolsToAny(in))
		for u, p := range pruned {
			if !p {
				t.Errorf("%s: node %d not pruned on a valid MIS", name, u)
			}
		}
	}
}

func TestRulingSetPrunerGluing(t *testing.T) {
	// Random tentative outputs: prune, solve the surviving subgraph with a
	// greedy MIS, and verify the combined output is an MIS of G (the gluing
	// property). Repeated over many random outputs and graphs.
	rng := rand.New(rand.NewPCG(11, 12))
	for name, g := range testGraphSuite(t) {
		for trial := 0; trial < 30; trial++ {
			tentative := make([]bool, g.N())
			for u := range tentative {
				tentative[u] = rng.IntN(3) == 0
			}
			pruned := decideAll(g, MISPruner(), nil, boolsToAny(tentative))
			// Solve the surviving induced subgraph (any valid solution works;
			// the greedy MIS is one).
			sub, orig, err := graphtest.InducedSubgraph(g, invert(pruned))
			if err != nil {
				t.Fatal(err)
			}
			subMIS := graphtest.GreedyMIS(sub)
			combined := make([]bool, g.N())
			for u := range combined {
				if pruned[u] {
					combined[u] = tentative[u]
				}
			}
			for i, o := range orig {
				combined[o] = subMIS[i]
			}
			if err := problems.ValidMIS(g, combined); err != nil {
				t.Fatalf("%s trial %d: gluing violated: %v", name, trial, err)
			}
		}
	}
}

func TestRulingSetPrunerBeta2Gluing(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	g, err := graph.GNP(60, 0.06, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := RulingSetPruner(2)
	if p.Radius() != 3 {
		t.Fatalf("P(2,2) radius = %d, want 3", p.Radius())
	}
	for trial := 0; trial < 40; trial++ {
		tentative := make([]bool, g.N())
		for u := range tentative {
			tentative[u] = rng.IntN(4) == 0
		}
		pruned := decideAll(g, p, nil, boolsToAny(tentative))
		sub, orig, err := graphtest.InducedSubgraph(g, invert(pruned))
		if err != nil {
			t.Fatal(err)
		}
		subSol := graphtest.GreedyMIS(sub) // an MIS is a (2,2)-ruling set
		combined := make([]bool, g.N())
		for u := range combined {
			if pruned[u] {
				combined[u] = tentative[u]
			}
		}
		for i, o := range orig {
			combined[o] = subSol[i]
		}
		if err := problems.ValidRulingSet(g, combined, 2, 2); err != nil {
			t.Fatalf("trial %d: gluing violated: %v", trial, err)
		}
	}
}

func TestRulingSetPrunerGarbageOutputs(t *testing.T) {
	// Non-bool tentative outputs must never be pruned as members.
	g := graph.Path(5)
	outputs := []any{nil, "garbage", 3, true, false}
	pruned := decideAll(g, MISPruner(), nil, outputs)
	// Node 3 (true) has neighbours with non-true outputs: it is an isolated
	// member, so it and its dominated neighbours are pruned.
	if !pruned[3] {
		t.Error("valid isolated member not pruned")
	}
	if pruned[0] || pruned[1] {
		t.Error("nodes far from any member must survive")
	}
}

func TestMatchingPrunerSolutionDetection(t *testing.T) {
	for name, g := range testGraphSuite(t) {
		y := graphtest.GreedyMatching(g)
		pruned := decideAll(g, MatchingPruner(), nil, y)
		for u, p := range pruned {
			if !p {
				t.Errorf("%s: node %d not pruned on a valid maximal matching", name, u)
			}
		}
	}
}

func TestMatchingPrunerGluing(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for name, g := range testGraphSuite(t) {
		for trial := 0; trial < 30; trial++ {
			tentative := randomClaims(rng, g)
			pruned := decideAll(g, MatchingPruner(), nil, tentative)
			sub, orig, err := graphtest.InducedSubgraph(g, invert(pruned))
			if err != nil {
				t.Fatal(err)
			}
			subSol := graphtest.GreedyMatching(sub)
			combined := make([]any, g.N())
			for u := range combined {
				if pruned[u] {
					combined[u] = tentative[u]
				} else {
					combined[u] = problems.EdgeClaim{}
				}
			}
			for i, o := range orig {
				combined[o] = subSol[i]
			}
			if err := problems.ValidMaximalMatching(g, combined); err != nil {
				t.Fatalf("%s trial %d: gluing violated: %v", name, trial, err)
			}
		}
	}
}

// randomClaims builds adversarial tentative matching outputs: a mix of
// correct canonical claims, half-claims (only one endpoint), garbage values
// and zeros.
func randomClaims(rng *rand.Rand, g *graph.Graph) []any {
	y := make([]any, g.N())
	for u := 0; u < g.N(); u++ {
		switch rng.IntN(5) {
		case 0: // canonical claim with a random neighbour (possibly one-sided)
			if g.Degree(u) > 0 {
				v := int(g.Neighbors(u)[rng.IntN(g.Degree(u))])
				claim := problems.NewEdgeClaim(g.ID(u), g.ID(v))
				y[u] = claim
				if rng.IntN(2) == 0 {
					y[v] = claim
				}
			} else {
				y[u] = problems.EdgeClaim{}
			}
		case 1:
			y[u] = problems.NewEdgeClaim(int64(rng.IntN(100)+1), int64(rng.IntN(100)+200))
		case 2:
			y[u] = "garbage"
		default:
			if y[u] == nil {
				y[u] = problems.EdgeClaim{}
			}
		}
	}
	return y
}

func invert(mask []bool) []bool {
	out := make([]bool, len(mask))
	for i, b := range mask {
		out[i] = !b
	}
	return out
}

func TestMatchingPrunerIsolatedNode(t *testing.T) {
	g := graphtest.Empty(3)
	pruned := decideAll(g, MatchingPruner(), nil, []any{problems.EdgeClaim{}, nil, "junk"})
	for u, p := range pruned {
		if !p {
			t.Errorf("isolated node %d not pruned", u)
		}
	}
}
