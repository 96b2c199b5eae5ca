package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

// misEngine wires the colormis stack (Linial + reduction + greedy-by-color)
// as a NonUniform with Γ = {Δ, m} and its additive envelope.
func misEngine() (NonUniform, SetSequence) {
	nu := NonUniformFunc{
		AlgoName: "colormis",
		Needs:    []Param{ParamMaxDegree, ParamMaxID},
		Build: func(p Params) local.Algorithm {
			return colormis.New(p.Delta, p.M)
		},
	}
	seq := Additive(colormis.BoundDelta, colormis.BoundM)
	return nu, seq
}

// lubyEngine wires truncated Luby as a weak Monte Carlo NonUniform with
// Γ = {n}.
func lubyEngine() (NonUniform, SetSequence) {
	nu := NonUniformFunc{
		AlgoName: "luby-truncated",
		Needs:    []Param{ParamN},
		Build: func(p Params) local.Algorithm {
			return luby.Truncated(p.N)
		},
	}
	seq := Additive(func(n int) int { return luby.Rounds(n) })
	return nu, seq
}

func transformerSuite(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gnp, err := graph.GNP(150, 0.035, 17)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := graph.Cycle(40)
	shuffled, err := graph.WithShuffledIDs(graph.Grid(8, 8), 1<<26, 9)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path":     graph.Path(60),
		"cycle":    cyc,
		"clique":   graph.Complete(14),
		"star":     graph.Star(30),
		"gnp":      gnp,
		"tree":     graph.RandomTree(90, 5),
		"shuffled": shuffled,
		"twoParts": graph.DisjointUnion(graph.Path(10), graph.Complete(6)),
	}
}

func TestTheorem1UniformMIS(t *testing.T) {
	nu, seq := misEngine()
	uniform := Uniform(nu, seq, MISPruner())
	for name, g := range transformerSuite(t) {
		t.Run(name, func(t *testing.T) {
			res, err := local.Run(g, uniform, local.Options{Seed: 3})
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
			// Theorem 1 bound: O(f*) with s_f = 1. Generously, the doubling
			// schedule costs at most ~4*C*f* rounds plus pruning overhead.
			fStar := colormis.BoundDelta(g.MaxDegree()) + colormis.BoundM(int(g.MaxIDValue()))
			limit := 16*fStar + 200
			if res.Rounds > limit {
				t.Errorf("uniform MIS took %d rounds; Theorem 1 limit %d (f* = %d)", res.Rounds, limit, fStar)
			}
		})
	}
}

func TestTheorem1MatchesNonUniformAsymptotics(t *testing.T) {
	// The headline claim: the uniform algorithm's rounds stay within a
	// constant factor of the non-uniform algorithm run with correct guesses,
	// across a growing family.
	nu, seq := misEngine()
	uniform := Uniform(nu, seq, MISPruner())
	prevRatio := 0.0
	for _, n := range []int{64, 256, 1024} {
		g, err := graph.GNP(n, 6.0/float64(n), int64(n))
		if err != nil {
			t.Fatal(err)
		}
		resU, err := local.Run(g, uniform, local.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		correct := nu.WithParams(Params{Delta: g.MaxDegree(), M: g.MaxIDValue()})
		resN, err := local.Run(g, correct, local.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		inU, err := problems.Bools(resU.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := problems.ValidMIS(g, inU); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ratio := float64(resU.Rounds) / float64(resN.Rounds)
		t.Logf("n=%d: uniform %d rounds, non-uniform %d rounds, ratio %.1f", n, resU.Rounds, resN.Rounds, ratio)
		if ratio > 60 {
			t.Errorf("n=%d: ratio %.1f implausibly large for an O(1)-overhead transform", n, ratio)
		}
		prevRatio = ratio
	}
	_ = prevRatio
}

func TestTheorem2LasVegasMIS(t *testing.T) {
	nu, seq := lubyEngine()
	lv := LasVegas(nu, seq, MISPruner())
	for name, g := range transformerSuite(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				res, err := local.Run(g, lv, local.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				in, err := problems.Bools(res.Outputs)
				if err != nil {
					t.Fatal(err)
				}
				if err := problems.ValidMIS(g, in); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestTheorem4FastestOf(t *testing.T) {
	// Combine the uniform deterministic MIS (fast when Δ small) with plain
	// Luby (fast everywhere, randomized): Theorem 4 runs as fast as the
	// faster of the two on every instance.
	nu, seq := misEngine()
	uniformDet := Uniform(nu, seq, MISPruner())
	combined := FastestOf("fastest-mis", MISPruner(), uniformDet, luby.New())
	for name, g := range transformerSuite(t) {
		t.Run(name, func(t *testing.T) {
			res, err := local.Run(g, combined, local.Options{Seed: 5})
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
		})
	}
}

func TestTheorem4BeatsSlowEngine(t *testing.T) {
	// Pair a uselessly slow algorithm with Luby: the combination must track
	// Luby's time, not the slow engine's.
	slow := local.AlgorithmFunc{
		AlgoName: "slow-idle",
		NewNode: func(info local.Info) local.Node {
			return idleForever{}
		},
	}
	combined := FastestOf("luby-vs-idle", MISPruner(), slow, luby.New())
	g, err := graph.GNP(200, 0.03, 23)
	if err != nil {
		t.Fatal(err)
	}
	res, err := local.Run(g, combined, local.Options{Seed: 2})
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
	resLuby, err := local.Run(g, luby.New(), local.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Doubling overhead: combined <= ~8x luby-alone plus pruning rounds.
	if limit := 24*resLuby.Rounds + 150; res.Rounds > limit {
		t.Errorf("combined %d rounds vs luby %d: exceeds Theorem 4 overhead (%d)", res.Rounds, resLuby.Rounds, limit)
	}
}

type idleForever struct{}

func (idleForever) Round(int, []local.Message) ([]local.Message, bool) { return nil, false }
func (idleForever) Output() any                                        { return nil }

func TestTheorem3WeaklyDominated(t *testing.T) {
	// colormis requires Γ = {Δ, m}; take Λ = {m} and dominate Δ by m via the
	// identity (Δ < n <= m always). The derived uniform algorithm guesses
	// only m.
	nu, _ := misEngine()
	seq := Additive(func(m int) int {
		return colormis.BoundDelta(m) + colormis.BoundM(m)
	})
	uniform, err := UniformWeaklyDominated(nu, []Param{ParamMaxID},
		[]Domination{{Param: ParamMaxDegree, ByIndex: 0, G: func(x int) int { return x }}},
		seq, MISPruner())
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.GNP(40, 0.1, 29)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := graph.Cycle(12)
	for name, g := range map[string]*graph.Graph{"gnp": gnp, "cycle": cyc, "clique": graph.Complete(8)} {
		res, err := local.Run(g, uniform, local.Options{Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in, err := problems.Bools(res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := problems.ValidMIS(g, in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestUniformWeaklyDominatedValidation(t *testing.T) {
	nu, seq := misEngine()
	if _, err := UniformWeaklyDominated(nu, []Param{ParamMaxID}, nil, Additive(func(x int) int { return x }), MISPruner()); err == nil {
		t.Error("uncovered parameter not rejected")
	}
	if _, err := UniformWeaklyDominated(nu, []Param{ParamMaxID},
		[]Domination{{Param: ParamMaxDegree, ByIndex: 7, G: func(x int) int { return x }}},
		Additive(func(x int) int { return x }), MISPruner()); err == nil {
		t.Error("out-of-range domination index not rejected")
	}
	_ = seq
}

func TestAlternatingObservation34(t *testing.T) {
	// A plan that emits garbage algorithms before a correct one: the
	// alternating algorithm must still terminate with a correct combined
	// output, and garbage iterations must never corrupt pruned regions.
	garbage := local.AlgorithmFunc{
		AlgoName: "garbage",
		NewNode: func(info local.Info) local.Node {
			return garbageNode{flip: info.ID%2 == 0}
		},
	}
	g, err := graph.GNP(80, 0.07, 31)
	if err != nil {
		t.Fatal(err)
	}
	correct := colormis.New(g.MaxDegree(), g.MaxIDValue())
	plan := listPlan{steps: []Step{
		{Algo: garbage, Budget: 3},
		{Algo: garbage, Budget: 5},
		{Algo: correct, Budget: colormis.BoundDelta(g.MaxDegree()) + colormis.BoundM(int(g.MaxIDValue()))},
		{Algo: correct, Budget: colormis.BoundDelta(g.MaxDegree()) + colormis.BoundM(int(g.MaxIDValue()))},
	}}
	alt := NewAlternating("garbage-then-correct", plan, MISPruner())
	res, err := local.Run(g, alt, local.Options{Seed: 6})
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
}

type listPlan struct{ steps []Step }

func (p listPlan) Step(k int) (Step, bool) {
	if k < len(p.steps) {
		return p.steps[k], true
	}
	return Step{}, false
}

type garbageNode struct{ flip bool }

func (n garbageNode) Round(int, []local.Message) ([]local.Message, bool) { return nil, true }
func (n garbageNode) Output() any                                        { return n.flip }

func TestAlternatingExhaustedPlanErrors(t *testing.T) {
	// A plan whose steps never solve the problem must surface as a
	// MaxRounds error, not hang or return garbage.
	hopeless := listPlan{steps: []Step{{Algo: local.AlgorithmFunc{
		AlgoName: "never",
		NewNode:  func(local.Info) local.Node { return garbageNode{} },
	}, Budget: 2}}}
	alt := NewAlternating("hopeless", hopeless, MISPruner())
	g := graph.Path(4)
	if _, err := local.Run(g, alt, local.Options{MaxRounds: 500}); err == nil {
		t.Fatal("expected an error from an exhausted plan")
	}
}

func TestAlternatingExhaustedPlanPrompt(t *testing.T) {
	// An exhausted plan sleeps forever, so the engine skips straight to its
	// round cap: the default 2^21 rounds of 1000 nodes end long before the
	// deadline, with the unchanged MaxRounds error.
	hopeless := listPlan{steps: []Step{{Algo: local.AlgorithmFunc{
		AlgoName: "never",
		NewNode:  func(local.Info) local.Node { return garbageNode{} },
	}, Budget: 2}}}
	g := graph.Path(1000)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, w := range []int{1, 4} {
		_, err := local.Run(g, NewAlternating("hopeless", hopeless, MISPruner()), local.Options{Workers: w, Context: ctx})
		want := fmt.Sprintf("%v: algorithm %q, %d of %d nodes still running after %d rounds",
			local.ErrMaxRounds, "hopeless", g.N(), g.N(), local.DefaultMaxRounds)
		if !errors.Is(err, local.ErrMaxRounds) || err.Error() != want {
			t.Fatalf("workers %d: err = %v, want %q", w, err, want)
		}
	}
}
