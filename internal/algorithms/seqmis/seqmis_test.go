package seqmis

import (
	"testing"
	"testing/quick"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func TestSeqMISOnSuites(t *testing.T) {
	cyc, _ := graph.Cycle(25)
	gnp, err := graph.GNP(150, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := graph.WithShuffledIDs(graph.Grid(8, 8), 100000, 6)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"path":     graph.Path(40),
		"cycle":    cyc,
		"clique":   graph.Complete(30),
		"star":     graph.Star(25),
		"gnp":      gnp,
		"shuffled": shuffled,
		"empty":    graphtest.Empty(4),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			res, err := local.Run(g, New(), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			in, err := problems.Bools(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := problems.ValidMIS(g, in); err != nil {
				t.Fatal(err)
			}
			if m := int(g.MaxIDValue()); res.Rounds > Rounds(m) {
				t.Errorf("rounds %d exceed bound %d", res.Rounds, Rounds(m))
			}
		})
	}
}

func TestSeqMISEqualsGreedyByID(t *testing.T) {
	// On sequential identities the result must equal the sequential greedy
	// MIS by index.
	g, err := graph.GNP(80, 0.08, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := local.Run(g, New(), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problems.Bools(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	want := graphtest.GreedyMIS(g)
	for u := range want {
		if in[u] != want[u] {
			t.Fatalf("node %d: got %v, want greedy %v", u, in[u], want[u])
		}
	}
}

func TestSeqMISProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, err := graph.GNP(40, 0.12, seed)
		if err != nil {
			return false
		}
		res, err := local.Run(g, New(), local.Options{})
		if err != nil {
			return false
		}
		in, err := problems.Bools(res.Outputs)
		if err != nil {
			return false
		}
		return problems.ValidMIS(g, in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTruncatedBudget(t *testing.T) {
	// With a hopeless guess the truncated variant halts inside its budget.
	g := graph.Path(300)
	res, err := local.Run(g, Truncated(4), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > Rounds(4) {
		t.Errorf("rounds %d exceed budget %d", res.Rounds, Rounds(4))
	}
	// With a good guess it completes correctly.
	res2, err := local.Run(g, Truncated(int(g.MaxIDValue())), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problems.Bools(res2.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := problems.ValidMIS(g, in); err != nil {
		t.Fatal(err)
	}
}
