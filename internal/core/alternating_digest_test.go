package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/digest"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// parts returns a row's black box and the set-sequence of its bound.
func parts(r engines.Row) (core.NonUniform, core.SetSequence) {
	return r.NonUniform(0), r.Seq(0)
}

// altAlgos are the transformer stacks under test, one per plan family of
// the paper. Theorem 4 nests alternating algorithms: its racer is itself
// an alternating algorithm over two engines, one of which is another
// alternating algorithm.
func altAlgos() map[string]local.Algorithm {
	misNU, misSeq := parts(engines.RowMISDelta)
	lubyNU, lubySeq := parts(engines.RowLasVegasMIS)
	mmNU, mmSeq := parts(engines.RowMatching)
	inner := core.NewAlternating("t1", core.Theorem1Plan(misNU, misSeq), core.MISPruner())
	return map[string]local.Algorithm{
		"theorem1-mis":      core.NewAlternating("t1", core.Theorem1Plan(misNU, misSeq), core.MISPruner()),
		"theorem2-lasvegas": core.NewAlternating("t2", core.Theorem2Plan(lubyNU, lubySeq), core.MISPruner()),
		"theorem1-matching": core.NewAlternating("t1mm", core.Theorem1Plan(mmNU, mmSeq), core.MatchingPruner()),
		"theorem4-fastest":  core.NewAlternating("t4", core.Theorem4Plan([]local.Algorithm{inner, luby.New()}), core.MISPruner()),
	}
}

func altGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	gnp, err := graph.GNP(120, 0.045, 41)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := graph.Cycle(36)
	return map[string]*graph.Graph{
		"gnp":    gnp,
		"cycle":  cyc,
		"star":   graph.Star(24),
		"tree":   graph.RandomTree(70, 9),
		"clique": graph.Complete(10),
	}
}

// TestAlternatingRunDigests is the differential oracle of the alternating
// transformer: every plan family of the paper (Theorem 1 over colormis and
// over the line-graph matching, Theorem 2 over truncated Luby, and
// Theorem 4 racing a Theorem 1 algorithm against Luby) on every graph at
// three seeds. Each case must give its digest in
// testdata/alternating_digests.json at 1, 4 and 13 workers. Regenerate the
// table only when a change is meant to alter these Results:
//
//	go test ./internal/core -run TestAlternatingRunDigests -update
func TestAlternatingRunDigests(t *testing.T) {
	var cases []digest.Case
	for name, a := range altAlgos() {
		for gname, g := range altGraphs(t) {
			for _, seed := range []int64{0, 1, 7} {
				cases = append(cases, digest.Case{
					Name:  fmt.Sprintf("%s/%s/seed%d", name, gname, seed),
					Graph: g,
					Algo:  a,
					Opts:  local.Options{Seed: seed},
				})
			}
		}
	}
	digest.Run(t, "testdata/alternating_digests.json", cases, digest.Workers(1, 4, 13)...)
}

// TestAlternatingSharedAcrossRuns pins the plan-cache sharing rule: one
// algorithm value (with its shared memoized plan) reused across many
// concurrent Runs must behave exactly like a fresh instance per Run.
func TestAlternatingSharedAcrossRuns(t *testing.T) {
	misNU, misSeq := parts(engines.RowMISDelta)
	shared := core.NewAlternating("t1", core.Theorem1Plan(misNU, misSeq), core.MISPruner())
	g := altGraphs(t)["gnp"]

	type outcome struct {
		res *local.Result
		err error
	}
	const runs = 8
	results := make([]outcome, runs)
	done := make(chan int, runs)
	for i := 0; i < runs; i++ {
		go func(i int) {
			res, err := local.Run(g, shared, local.Options{Seed: int64(i % 2), Workers: 3})
			results[i] = outcome{res, err}
			done <- i
		}(i)
	}
	for i := 0; i < runs; i++ {
		<-done
	}
	for i, out := range results {
		if out.err != nil {
			t.Fatalf("run %d: %v", i, out.err)
		}
		fresh := core.NewAlternating("t1", core.Theorem1Plan(misNU, misSeq), core.MISPruner())
		want, err := local.Run(g, fresh, local.Options{Seed: int64(i % 2), Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.res, want) {
			t.Fatalf("run %d: shared-instance Result diverges from fresh instance", i)
		}
	}
}

// TestMemoPlanMatchesRaw checks the cache against the raw schedules step by
// step, including exhaustion, under interleaved out-of-order access.
func TestMemoPlanMatchesRaw(t *testing.T) {
	misNU, misSeq := parts(engines.RowMISDelta)
	lubyNU, lubySeq := parts(engines.RowLasVegasMIS)
	// Probe depths stay within the window indices an execution can actually
	// reach for plans that construct inner algorithms eagerly (cache
	// extension materialises every intermediate step, and colormis.New at
	// near-saturated guesses computes a gigantic Linial schedule); plans
	// over prebuilt algorithms are probed deep, past exhaustion.
	plans := map[string]struct {
		mk    func() core.Plan
		order []int
	}{
		"theorem1": {func() core.Plan { return core.Theorem1Plan(misNU, misSeq) },
			[]int{5, 0, 8, 3, 8, 1, 0}},
		"theorem2": {func() core.Plan { return core.Theorem2Plan(lubyNU, lubySeq) },
			[]int{5, 0, 17, 3, 17, 64, 1, 200, 64, 0}},
		"theorem4": {func() core.Plan { return core.Theorem4Plan([]local.Algorithm{luby.New()}) },
			[]int{5, 0, 17, 3, 17, 64, 1, 200, 64, 0}},
	}
	for name, tc := range plans {
		t.Run(name, func(t *testing.T) {
			raw := tc.mk()
			memo := core.MemoPlan(tc.mk())
			// Out-of-order probes, repeated to hit both cold and warm paths.
			for _, k := range tc.order {
				wantStep, wantOK := raw.Step(k)
				gotStep, gotOK := memo.Step(k)
				if wantOK != gotOK || wantStep.Budget != gotStep.Budget {
					t.Fatalf("Step(%d): memo (budget=%d, ok=%v) != raw (budget=%d, ok=%v)",
						k, gotStep.Budget, gotOK, wantStep.Budget, wantOK)
				}
				if gotOK && fmt.Sprint(gotStep.Algo.Name()) != fmt.Sprint(wantStep.Algo.Name()) {
					t.Fatalf("Step(%d): algo %q != %q", k, gotStep.Algo.Name(), wantStep.Algo.Name())
				}
			}
		})
	}
	// Idempotent wrapping.
	m := core.MemoPlan(core.Theorem4Plan(nil))
	if core.MemoPlan(m) != m {
		t.Fatal("MemoPlan re-wrapped an already-memoized plan")
	}
}
