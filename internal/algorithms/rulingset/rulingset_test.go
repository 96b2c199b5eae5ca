package rulingset

import (
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func TestTruncatedPowerLuby(t *testing.T) {
	g, err := graph.GNP(150, 0.04, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []int{1, 2, 3} {
		success := 0
		const trials = 8
		for seed := int64(0); seed < trials; seed++ {
			res, err := local.Run(g, TruncatedPowerLuby(beta, g.N()), local.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds > PowerLubyRounds(beta, g.N()) {
				t.Fatalf("β=%d: rounds %d exceed budget %d", beta, res.Rounds, PowerLubyRounds(beta, g.N()))
			}
			in, err := problems.Bools(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if problems.ValidRulingSet(g, in, 2, beta) == nil {
				success++
			}
		}
		if success < trials/2 {
			t.Errorf("β=%d: weak Monte Carlo success %d/%d below 1/2", beta, success, trials)
		}
	}
}

// TestTruncatedPowerLubyOnSuites runs the engine on the small graph suites
// (sparse, dense, star, random and shuffled-ID graphs) under the exact node
// count and checks the package doc's stronger claim: every run stays within
// its budget, and at least half the seeds yield a (β+1, β)-ruling set, its
// members pairwise more than β hops apart.
func TestTruncatedPowerLubyOnSuites(t *testing.T) {
	cyc, err := graph.Cycle(33)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.GNP(200, 0.04, 5)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := graph.WithShuffledIDs(graph.Grid(10, 10), 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"path":     graph.Path(64),
		"cycle":    cyc,
		"clique":   graph.Complete(20),
		"star":     graph.Star(40),
		"gnp":      gnp,
		"shuffled": shuffled,
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			for _, beta := range []int{1, 2, 3} {
				success := 0
				const trials = 8
				for seed := int64(0); seed < trials; seed++ {
					res, err := local.Run(g, TruncatedPowerLuby(beta, g.N()), local.Options{Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if budget := PowerLubyRounds(beta, g.N()); res.Rounds > budget {
						t.Fatalf("β=%d seed %d: rounds %d exceed budget %d", beta, seed, res.Rounds, budget)
					}
					in, err := problems.Bools(res.Outputs)
					if err != nil {
						t.Fatal(err)
					}
					if problems.ValidRulingSet(g, in, beta+1, beta) == nil {
						success++
					}
				}
				if success < trials/2 {
					t.Errorf("β=%d: weak Monte Carlo success %d/%d below 1/2", beta, success, trials)
				}
			}
		})
	}
}
