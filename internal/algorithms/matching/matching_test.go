package matching

import (
	"testing"
	"testing/quick"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func TestMatchingOnSuites(t *testing.T) {
	cyc, _ := graph.Cycle(21)
	gnp, err := graph.GNP(120, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"path":   graph.Path(30),
		"cycle":  cyc,
		"star":   graph.Star(20),
		"clique": graph.Complete(11),
		"grid":   graph.Grid(7, 8),
		"gnp":    gnp,
		"empty":  graphtest.Empty(4),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			d, m := g.MaxDegree(), max(g.MaxIDValue(), 1)
			res, err := local.Run(g, New(d, m), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := problems.ValidMaximalMatching(g, res.Outputs); err != nil {
				t.Fatal(err)
			}
			if env := BoundDelta(d) + BoundM(int(m)); res.Rounds > env {
				t.Errorf("rounds %d exceed additive envelope %d", res.Rounds, env)
			}
		})
	}
}

func TestMatchingClaimsAreConsistent(t *testing.T) {
	g := graph.Grid(6, 6)
	res, err := local.Run(g, New(g.MaxDegree(), g.MaxIDValue()), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		claim, ok := res.Outputs[u].(problems.EdgeClaim)
		if !ok {
			t.Fatalf("node %d output %T", u, res.Outputs[u])
		}
		if !claim.Claimed() {
			continue
		}
		// The claim names this node and one neighbour, and is reciprocated.
		other := claim.A
		if other == g.ID(u) {
			other = claim.B
		}
		p := -1
		for q := 0; q < g.Degree(u); q++ {
			if g.ID(int(g.Neighbors(u)[q])) == other {
				p = q
				break
			}
		}
		if p < 0 {
			t.Fatalf("node %d claims non-neighbour %d", u, other)
		}
		if res.Outputs[g.Neighbors(u)[p]] != claim {
			t.Fatalf("claim of node %d not reciprocated", u)
		}
	}
}

func TestMatchingProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, err := graph.GNP(40, 0.12, seed)
		if err != nil {
			return false
		}
		res, err := local.Run(g, New(g.MaxDegree(), g.MaxIDValue()), local.Options{Seed: seed})
		if err != nil {
			return false
		}
		return problems.ValidMaximalMatching(g, res.Outputs) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMatchingBadGuessTerminates(t *testing.T) {
	g := graph.Complete(12)
	res, err := local.Run(g, New(1, 3), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if env := BoundDelta(1) + BoundM(3); res.Rounds > env {
		t.Errorf("bad-guess rounds %d exceed envelope %d", res.Rounds, env)
	}
}
