package luby

import (
	"testing"
	"testing/quick"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
	"github.com/unilocal/unilocal/internal/problems"
)

func runMIS(t *testing.T, g *graph.Graph, seed int64) (*local.Result, []bool) {
	t.Helper()
	res, err := local.Run(g, New(), local.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problems.Bools(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	return res, in
}

func TestLubyOnSuites(t *testing.T) {
	cyc, _ := graph.Cycle(21)
	gnp, err := graph.GNP(300, 0.03, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := graph.RandomRegular(200, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"path":     graph.Path(50),
		"cycle":    cyc,
		"clique":   graph.Complete(40),
		"star":     graph.Star(64),
		"grid":     graph.Grid(12, 12),
		"gnp":      gnp,
		"regular":  reg,
		"tree":     graph.RandomTree(150, 4),
		"isolated": graphtest.Empty(10),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				_, in := runMIS(t, g, seed)
				if err := problems.ValidMIS(g, in); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestLubyProperty(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		var g *graph.Graph
		var err error
		switch pick % 3 {
		case 0:
			g, err = graph.GNP(60, 0.1, seed)
		case 1:
			g = graph.RandomTree(60, seed)
		default:
			g = graph.ForestUnion(60, 2, seed)
		}
		if err != nil {
			return false
		}
		res, err := local.Run(g, New(), local.Options{Seed: seed})
		if err != nil {
			return false
		}
		in, err := problems.Bools(res.Outputs)
		if err != nil {
			return false
		}
		return problems.ValidMIS(g, in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLubyRoundsLogarithmic(t *testing.T) {
	// Measured rounds should stay within the truncation budget for the
	// correct n, across a growing family: this validates the weak-Monte-Carlo
	// guarantee used by Theorem 2.
	for _, n := range []int{64, 256, 1024, 4096} {
		g, err := graph.GNP(n, 8.0/float64(n), int64(n))
		if err != nil {
			t.Fatal(err)
		}
		res, _ := runMIS(t, g, 7)
		if res.Rounds > Rounds(n) {
			t.Errorf("n=%d: %d rounds exceed budget %d", n, res.Rounds, Rounds(n))
		}
		if res.Rounds > 6*(mathutil.CeilLog2(n)+2) {
			t.Errorf("n=%d: %d rounds not logarithmic", n, res.Rounds)
		}
	}
}

func TestTruncatedGuarantee(t *testing.T) {
	// With a good guess the truncated run must produce a full MIS in a clear
	// majority of seeds (the Theorem 2 machinery only needs probability 1/2).
	g, err := graph.GNP(400, 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	success := 0
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		res, err := local.Run(g, Truncated(400), local.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		in, err := problems.Bools(res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if problems.ValidMIS(g, in) == nil {
			success++
		}
		if res.Rounds > Rounds(400) {
			t.Fatalf("truncated run exceeded its budget: %d > %d", res.Rounds, Rounds(400))
		}
	}
	if success < trials*3/4 {
		t.Errorf("truncated success rate %d/%d below 3/4", success, trials)
	}
}

func TestTruncatedBadGuessStillHalts(t *testing.T) {
	// With a hopeless guess (ñ = 1) the truncated algorithm must still halt
	// within its tiny budget; outputs may be arbitrary.
	g := graph.Complete(30)
	res, err := local.Run(g, Truncated(1), local.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > Rounds(1) {
		t.Errorf("rounds %d exceed budget %d", res.Rounds, Rounds(1))
	}
}
