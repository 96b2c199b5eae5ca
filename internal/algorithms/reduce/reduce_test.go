package reduce

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

// withGreedyColors feeds each node its greedy color as input.
func withGreedyColors(g *graph.Graph, inner local.Algorithm) local.Algorithm {
	colors := graphtest.GreedyColoring(g)
	return local.AlgorithmFunc{
		AlgoName: inner.Name() + "+input",
		NewNode: func(info local.Info) local.Node {
			info.Input = colors[graphtest.NodeWithID(g, info.ID)]
			return inner.New(info)
		},
	}
}

// spreadColors assigns widely spread distinct colors (node u gets 7u+1) to
// exercise large palettes.
func withSpreadColors(g *graph.Graph, inner local.Algorithm, stride int) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: inner.Name() + "+spread",
		NewNode: func(info local.Info) local.Node {
			info.Input = int(info.ID-1)*stride + 1
			return inner.New(info)
		},
	}
}

func TestBatchedReducesPalette(t *testing.T) {
	gnp, err := graph.GNP(150, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid(8, 9),
		"gnp":  gnp,
		"star": graph.Star(30),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			d := g.MaxDegree()
			k := g.N()*7 + 1
			for _, lambda := range []int{1, 2, 5, 50} {
				algo := withSpreadColors(g, Batched(k, lambda, d), 7)
				res, err := local.Run(g, algo, local.Options{})
				if err != nil {
					t.Fatal(err)
				}
				colors, err := problems.Ints(res.Outputs)
				if err != nil {
					t.Fatal(err)
				}
				if err := problems.ValidColoring(g, colors, BatchedPalette(lambda, d)); err != nil {
					t.Fatalf("λ=%d: %v", lambda, err)
				}
				if res.Rounds > BatchedRounds(k, lambda, d) {
					t.Fatalf("λ=%d: rounds %d exceed bound %d", lambda, res.Rounds, BatchedRounds(k, lambda, d))
				}
			}
		})
	}
}

func TestBatchedTradeoffMonotone(t *testing.T) {
	// More colors (larger λ) must not be slower: the paper's trade-off shape.
	g, err := graph.RandomRegular(120, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := g.N() + 1
	prev := 1 << 30
	for _, lambda := range []int{1, 2, 4, 8, 16} {
		algo := withSpreadColors(g, Batched(k, lambda, 6), 1)
		res, err := local.Run(g, algo, local.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds > prev {
			t.Errorf("λ=%d slower than smaller λ: %d > %d", lambda, res.Rounds, prev)
		}
		prev = res.Rounds
	}
}

func TestToDeltaPlusOne(t *testing.T) {
	gnp, err := graph.GNP(120, 0.06, 8)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := graph.Cycle(17)
	graphs := map[string]*graph.Graph{
		"gnp":    gnp,
		"cycle":  cyc,
		"clique": graph.Complete(12),
		"path":   graph.Path(25),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			d := g.MaxDegree()
			k := 12 * g.N()
			algo := withSpreadColors(g, ToDeltaPlusOne(k, d), 12)
			res, err := local.Run(g, algo, local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			colors, err := problems.Ints(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := problems.ValidColoring(g, colors, d+1); err != nil {
				t.Fatal(err)
			}
			if res.Rounds > ToDeltaPlusOneRounds(k, d) {
				t.Errorf("rounds %d exceed bound %d", res.Rounds, ToDeltaPlusOneRounds(k, d))
			}
		})
	}
}

func TestMISByColor(t *testing.T) {
	gnp, err := graph.GNP(150, 0.04, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"gnp":  gnp,
		"grid": graph.Grid(10, 7),
		"star": graph.Star(21),
	} {
		t.Run(name, func(t *testing.T) {
			k := g.MaxDegree() + 1
			algo := withGreedyColors(g, MISByColor(k))
			res, err := local.Run(g, algo, local.Options{})
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
			if res.Rounds > MISByColorRounds(k) {
				t.Errorf("rounds %d exceed bound %d", res.Rounds, MISByColorRounds(k))
			}
		})
	}
}

func TestBatchedProperty(t *testing.T) {
	// Random graphs, random λ: output always proper and within palette.
	f := func(seed int64, lraw uint8) bool {
		g, err := graph.GNP(40, 0.12, seed)
		if err != nil {
			return false
		}
		lambda := int(lraw%9) + 1
		d := g.MaxDegree()
		k := g.N()
		algo := withSpreadColors(g, Batched(k, lambda, d), 1)
		res, err := local.Run(g, algo, local.Options{})
		if err != nil {
			return false
		}
		colors, err := problems.Ints(res.Outputs)
		if err != nil {
			return false
		}
		return problems.ValidColoring(g, colors, BatchedPalette(lambda, d)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBadGuessesTerminate(t *testing.T) {
	// Degree guess far too small: run must halt within the bound; output may
	// be improper.
	g := graph.Complete(15)
	algo := withSpreadColors(g, Batched(g.N(), 2, 1), 1)
	res, err := local.Run(g, algo, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > BatchedRounds(g.N(), 2, 1) {
		t.Error("bad-guess run exceeded bound")
	}
	algoMIS := withGreedyColors(g, MISByColor(3)) // palette guess too small
	if _, err := local.Run(g, algoMIS, local.Options{}); err != nil {
		t.Fatal(err)
	}
}

// hideWake exposes only the Node methods of a's nodes, so the engine steps
// them every round.
func hideWake(a local.Algorithm) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: a.Name(),
		NewNode:  func(info local.Info) local.Node { return struct{ local.Node }{a.New(info)} },
	}
}

// TestSleepersMatchStepped runs Batched and MISByColor on spread input
// colors, whose empty batches and color classes are silent stretches the
// engine skips: the Results must equal those of the same nodes stepped
// every round.
func TestSleepersMatchStepped(t *testing.T) {
	g, err := graph.GNP(120, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := g.MaxDegree()
	k := 5*g.N() + 1
	algos := map[string]local.Algorithm{
		"batched":      withSpreadColors(g, Batched(k, 3, d), 5),
		"mis-by-color": withSpreadColors(g, MISByColor(k), 5),
	}
	for name, a := range algos {
		for _, opts := range []local.Options{{Seed: 1, Workers: 1}, {Seed: 1, Workers: 4, Permute: &local.Permute{Seed: 2}}} {
			want, err := local.Run(g, hideWake(a), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := local.Run(g, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s (workers %d): skipping run differs from the stepped run", name, opts.Workers)
			}
		}
	}
}
