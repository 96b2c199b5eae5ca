package local_test

// Differential gate for the bitset data plane (ISSUE 10): the word-level
// frontier/halted engine must produce byte-identical Results to the frozen
// pre-refactor oracle (engine_legacy_test.go) across every graph family the
// scenario corpus uses × every scheduler × every worker count. The legacy
// lockstep run is the reference for all three schedulers on the permutation
// side: a round's sends are invisible until the next round, so the step
// order within a round — ascending, rank-shuffled, whatever — cannot change
// any Result byte. Staggered wake-up changes the executed algorithm (the
// wake-up wrapper), so there the reference is the legacy engine running the
// same wrapped algorithm.

import (
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// bitsetDiffGraphs builds one graph per family, sized to straddle word
// boundaries (257 = 4 words + 1 bit) and to leave long pseudo-halted tails
// under waveAlgo. -short trims the heavier generators.
func bitsetDiffGraphs(t testing.TB, short bool) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs[name] = g
	}
	cyc, err := graph.Cycle(257)
	add("cycle", cyc, err)
	gnp, err := graph.GNP(320, 0.03, 23)
	add("gnp", gnp, err)
	if short {
		return gs
	}
	geo, err := graph.RandomGeometric(300, 0.09, 41)
	add("geometric", geo, err)
	pa, err := graph.PreferentialAttachment(300, 3, 59)
	add("prefattach", pa, err)
	ws, err := graph.WattsStrogatz(256, 6, 0.2, 71)
	add("wattsstrogatz", ws, err)
	return gs
}

// TestEngineBitsetDifferential is the ISSUE 10 satellite gate: all 5 graph
// families × {lockstep, staggered, permuted} × worker counts, each compared
// field-by-field (Outputs, HaltRounds, Rounds, Messages, Steps) against the
// frozen legacy oracle. Run under -race in CI, it also proves the atomic
// halt recording and the popcount-balanced word partition are race-free.
func TestEngineBitsetDifferential(t *testing.T) {
	base := waveAlgo(9, 3)
	schedulers := map[string]struct {
		algo    local.Algorithm
		permute *local.Permute
	}{
		"lockstep":  {algo: base},
		"staggered": {algo: local.StaggeredWakeup(base, 101, 5)},
		"permuted":  {algo: base, permute: &local.Permute{Seed: 77}},
	}
	for gname, g := range bitsetDiffGraphs(t, testing.Short()) {
		for sname, sched := range schedulers {
			// The oracle always runs lockstep order (it has no permutation
			// support); for the permuted scheduler this is exactly the
			// output-invariance claim under test.
			ref, err := runLegacy(g, sched.algo, local.Options{Seed: 13, Sequential: true})
			if err != nil {
				t.Fatalf("%s/%s: legacy oracle: %v", gname, sname, err)
			}
			for _, w := range workerCounts() {
				label := fmt.Sprintf("%s/%s/workers=%d", gname, sname, w)
				got, err := local.Run(g, sched.algo, local.Options{
					Seed:    13,
					Workers: w,
					Permute: sched.permute,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameResult(t, label, ref, got)
			}
			// Sequential bitset run too — the single-worker word scan is a
			// distinct code path from the partitioned one.
			got, err := local.Run(g, sched.algo, local.Options{
				Seed:       13,
				Sequential: true,
				Permute:    sched.permute,
			})
			if err != nil {
				t.Fatalf("%s/%s/sequential: %v", gname, sname, err)
			}
			sameResult(t, gname+"/"+sname+"/sequential", ref, got)
		}
	}
}

// TestEngineStepsAccounting pins Result.Steps against the closed form for
// the wave schedule on a cycle: node u is live in rounds 0..haltAt(u), so
// Steps = Σ_u (haltAt(u)+1), independent of scheduler and worker count.
func TestEngineStepsAccounting(t *testing.T) {
	const n, waves, gap = 130, 7, 4
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for u := 0; u < n; u++ {
		want += int64(waveHalt(g.ID(u), waves, gap) + 1)
	}
	for _, w := range workerCounts() {
		res, err := local.Run(g, waveAlgo(waves, gap), local.Options{Seed: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != want {
			t.Errorf("workers=%d: Steps = %d, want %d", w, res.Steps, want)
		}
	}
}
