package coloralgo

import (
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/linial"
	"github.com/unilocal/unilocal/internal/algorithms/reduce"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	cyc, _ := graph.Cycle(19)
	gnp, err := graph.GNP(180, 0.04, 5)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := graph.RandomRegular(120, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	big, err := graph.WithShuffledIDs(graph.Grid(12, 12), 1<<29, 11)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path":    graph.Path(30),
		"cycle":   cyc,
		"clique":  graph.Complete(17),
		"star":    graph.Star(40),
		"gnp":     gnp,
		"regular": reg,
		"tree":    graph.RandomTree(100, 2),
		"bigIDs":  big,
	}
}

func TestDeltaPlusOneColoring(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			d := g.MaxDegree()
			m := g.MaxIDValue()
			res, err := local.Run(g, DeltaPlusOne(d, m), local.Options{})
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
			if bound := DeltaPlusOneRounds(d, m); res.Rounds > bound {
				t.Errorf("rounds %d exceed composed bound %d", res.Rounds, bound)
			}
			if env := BoundDelta(d) + BoundM(int(m)); res.Rounds > env {
				t.Errorf("rounds %d exceed additive envelope %d", res.Rounds, env)
			}
		})
	}
}

func TestLambdaColoring(t *testing.T) {
	g, err := graph.RandomRegular(150, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, m := g.MaxDegree(), g.MaxIDValue()
	prevRounds := 1 << 30
	for _, lambda := range []int{1, 2, 4, 9} {
		res, err := local.Run(g, Lambda(lambda, d, m), local.Options{})
		if err != nil {
			t.Fatal(err)
		}
		colors, err := problems.Ints(res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := problems.ValidColoring(g, colors, LambdaPalette(lambda, d)); err != nil {
			t.Fatalf("λ=%d: %v", lambda, err)
		}
		if bound := lambdaRounds(lambda, d, m); res.Rounds > bound {
			t.Errorf("λ=%d: rounds %d exceed bound %d", lambda, res.Rounds, bound)
		}
		if env := LambdaBoundDelta(lambda, d) + BoundM(int(m)); res.Rounds > env {
			t.Errorf("λ=%d: rounds %d exceed envelope %d", lambda, res.Rounds, env)
		}
		if res.Rounds > prevRounds+2 {
			t.Errorf("λ=%d: trade-off not monotone: %d after %d", lambda, res.Rounds, prevRounds)
		}
		prevRounds = res.Rounds
	}
}

func TestEnvelopesDominateComputedBounds(t *testing.T) {
	// The monotone additive envelopes must dominate the exact composed
	// bounds over a wide (Δ̃, m̃) grid — this is what makes the Theorem 1
	// budgets sufficient.
	for _, d := range []int{0, 1, 2, 3, 5, 8, 13, 21, 55, 144} {
		for _, m := range []int64{1, 7, 1 << 10, 1 << 20, 1 << 31, 1 << 45, 1 << 62} {
			if exact, env := DeltaPlusOneRounds(d, m), BoundDelta(d)+BoundM(int(min64(m, 1<<62))); exact > env {
				t.Errorf("Δ+1: exact(%d,%d)=%d > envelope %d", d, m, exact, env)
			}
			for _, lambda := range []int{1, 3, 10} {
				if exact, env := lambdaRounds(lambda, d, m), LambdaBoundDelta(lambda, d)+BoundM(int(min64(m, 1<<62))); exact > env {
					t.Errorf("λ: exact(λ=%d,%d,%d)=%d > envelope %d", lambda, d, m, exact, env)
				}
			}
		}
	}
}

func TestEnvelopesMonotone(t *testing.T) {
	prevD, prevM := 0, 0
	for d := 0; d < 300; d++ {
		if b := BoundDelta(d); b < prevD {
			t.Fatalf("BoundDelta not monotone at %d", d)
		} else {
			prevD = b
		}
	}
	for _, m := range []int{1, 2, 10, 1 << 10, 1 << 30, 1 << 62} {
		if b := BoundM(m); b < prevM {
			t.Fatalf("BoundM not monotone at %d", m)
		} else {
			prevM = b
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// lambdaRounds bounds the running time of Lambda.
func lambdaRounds(lambda, deltaHat int, mHat int64) int {
	k := StartPalette(deltaHat, mHat)
	return linial.RoundsBound(deltaHat, mHat) + reduce.BatchedRounds(k, lambda, deltaHat) + composeSlack
}
