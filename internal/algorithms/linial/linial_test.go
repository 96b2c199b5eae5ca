package linial

import (
	"testing"
	"testing/quick"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/graph/graphtest"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
	"github.com/unilocal/unilocal/internal/problems"
)

func runColoring(t *testing.T, g *graph.Graph, deltaHat int, mHat int64) ([]int, int) {
	t.Helper()
	res, err := local.Run(g, New(deltaHat, mHat), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	colors, err := problems.Ints(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	return colors, res.Rounds
}

func TestLinialOnSuites(t *testing.T) {
	cyc, _ := graph.Cycle(33)
	gnp, err := graph.GNP(250, 0.03, 6)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := graph.RandomRegular(150, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := graph.WithShuffledIDs(graph.Grid(10, 10), 1<<30, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"path":     graph.Path(40),
		"cycle":    cyc,
		"clique":   graph.Complete(25),
		"star":     graph.Star(50),
		"grid":     graph.Grid(9, 13),
		"gnp":      gnp,
		"regular":  reg,
		"tree":     graph.RandomTree(120, 3),
		"shuffled": shuffled,
		"empty":    graphtest.Empty(7),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			deltaHat := g.MaxDegree()
			mHat := g.MaxIDValue()
			if mHat == 0 {
				mHat = 1
			}
			colors, rounds := runColoring(t, g, deltaHat, mHat)
			palette := int(PaletteSize(deltaHat, mHat))
			if err := problems.ValidColoring(g, colors, palette); err != nil {
				t.Fatal(err)
			}
			if want := RoundsBound(deltaHat, mHat); rounds > want {
				t.Errorf("rounds %d exceed bound %d", rounds, want)
			}
		})
	}
}

func TestLinialGoodGuessesLarger(t *testing.T) {
	// Over-estimating Δ and m must stay correct (that is the definition of a
	// good guess).
	g, err := graph.GNP(120, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, mult := range []int{1, 2, 10} {
		deltaHat := g.MaxDegree() * mult
		mHat := g.MaxIDValue() * int64(mult)
		colors, _ := runColoring(t, g, deltaHat, mHat)
		if err := problems.ValidColoring(g, colors, int(PaletteSize(deltaHat, mHat))); err != nil {
			t.Errorf("mult=%d: %v", mult, err)
		}
	}
}

func TestLinialBadGuessStillTerminates(t *testing.T) {
	g := graph.Complete(20) // Δ = 19
	algo := New(2, 40)      // hopeless degree guess
	res, err := local.Run(g, algo, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > RoundsBound(2, 40) {
		t.Errorf("bad-guess run took %d rounds, bound %d", res.Rounds, RoundsBound(2, 40))
	}
}

func TestPaletteQuadraticEnvelope(t *testing.T) {
	// PaletteSize(Δ̃, m̃) <= (3Δ̃+4)² across a wide grid: the O(Δ²) claim.
	for _, d := range []int{0, 1, 2, 3, 4, 6, 8, 16, 33, 64, 100, 255} {
		for _, m := range []int64{10, 1000, 1 << 20, 1 << 31, 1 << 45, 1 << 62} {
			p := PaletteSize(d, m)
			env := int64(3*d+4) * int64(3*d+4)
			if p > env && p > m {
				t.Errorf("palette(%d, %d) = %d exceeds both envelope %d and m", d, m, p, env)
			}
		}
	}
}

func TestRoundsLogStarEnvelope(t *testing.T) {
	// RoundsBound(Δ̃, m̃) <= log*(m̃) + 12 + small Δ̃ tail: the log* claim.
	for _, d := range []int{0, 1, 2, 4, 8, 32, 128, 1024} {
		for _, m := range []int64{1, 100, 1 << 16, 1 << 31, 1 << 48, 1 << 62} {
			r := RoundsBound(d, m)
			env := mathutil.LogStar(int(min64(m, 1<<62))) + 12
			if r > env {
				t.Errorf("rounds(%d, %d) = %d exceeds log* envelope %d", d, m, r, env)
			}
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestScheduleDeterministicAndDecreasing(t *testing.T) {
	steps, final := Schedule(8, 1<<31)
	steps2, final2 := Schedule(8, 1<<31)
	if len(steps) != len(steps2) || final != final2 {
		t.Fatal("schedule not deterministic")
	}
	k := int64(1 << 31)
	for _, st := range steps {
		if st.q*st.q >= k {
			t.Fatalf("non-decreasing step: q²=%d from k=%d", st.q*st.q, k)
		}
		if !mathutil.IsPrime(int(st.q)) {
			t.Fatalf("q=%d not prime", st.q)
		}
		if st.q < int64(8*st.d+1) {
			t.Fatalf("q=%d violates q >= Δd+1 for d=%d", st.q, st.d)
		}
		k = st.q * st.q
	}
	if k != final {
		t.Fatalf("final palette mismatch: %d vs %d", k, final)
	}
}

func TestReduceColorPairwiseProperty(t *testing.T) {
	// Core invariant: for any two distinct colors whose nodes see each other,
	// the reduced colors differ. Exercised via quick over random pairs.
	st := step{q: 11, d: 2} // supports k <= 1331, Δ̃d < 11 => Δ̃ <= 5 with d=2
	f := func(a, b uint16) bool {
		ca, cb := int64(a)%1331, int64(b)%1331
		if ca == cb {
			return true
		}
		ra, _ := reduceColor(ca, []int64{cb}, st, nil)
		rb, _ := reduceColor(cb, []int64{ca}, st, nil)
		if ra == rb {
			return false
		}
		return ra >= 0 && ra < 121 && rb >= 0 && rb < 121
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInitialColorFromInput(t *testing.T) {
	// Colors supplied via Input must be honoured (used by Theorem 5 phase 2).
	g := graph.Path(6)
	withInput := local.AlgorithmFunc{
		AlgoName: "linial-with-input",
		NewNode: func(info local.Info) local.Node {
			info.Input = int(info.ID%3) + 1 // improper! but in [1,3]
			return New(2, 3).New(info)
		},
	}
	// The run must terminate regardless (outputs may be improper since the
	// input coloring is improper).
	if _, err := local.Run(g, withInput, local.Options{}); err != nil {
		t.Fatal(err)
	}
	// And with a proper input coloring the output is proper.
	proper := local.AlgorithmFunc{
		AlgoName: "linial-proper-input",
		NewNode: func(info local.Info) local.Node {
			info.Input = int(info.ID%2) + 1 // consecutive path ids alternate
			return New(2, 2).New(info)
		},
	}
	res, err := local.Run(g, proper, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	colors, err := problems.Ints(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := problems.ValidColoring(g, colors, int(PaletteSize(2, 2))); err != nil {
		t.Error(err)
	}
}
