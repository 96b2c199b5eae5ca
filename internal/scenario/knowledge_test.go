package scenario

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/sweep"
)

// looseSpec is the canonical looseness-sweep shape: a PerGraph baseline run
// at every λ against one exact uniform run.
func looseSpec(lams ...float64) *Spec {
	s := validSpec()
	s.Baseline = &AlgoSpec{Name: "nonuniform-mis-delta"}
	s.Knowledge = KnowledgeSpec{Regime: core.KnowUpperBound, Looseness: lams}
	return s
}

func TestKnowledgeSpecValidate(t *testing.T) {
	good := []*Spec{
		looseSpec(1, 2, 4, 16),
		looseSpec(), // default grid [1]
		func() *Spec { s := validSpec(); s.Knowledge = KnowledgeSpec{Regime: core.KnowExact}; return s }(),
		func() *Spec { s := validSpec(); s.Knowledge = KnowledgeSpec{Regime: core.KnowNone}; return s }(),
		func() *Spec {
			s := validSpec()
			s.Scheduler = SchedSpec{Kind: SchedStaggered, MaxDelay: 4, Seed: 9}
			return s
		}(),
		func() *Spec { s := validSpec(); s.Scheduler = SchedSpec{Kind: SchedPermuted, Seed: 3}; return s }(),
		func() *Spec { s := validSpec(); s.Scheduler = SchedSpec{Kind: SchedModular, MaxDelay: 16}; return s }(),
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"looseness below 1", func(s *Spec) {
			s.Knowledge = KnowledgeSpec{Regime: core.KnowUpperBound, Looseness: []float64{0.5}}
		}, ">= 1"},
		{"non-ascending grid", func(s *Spec) {
			s.Knowledge = KnowledgeSpec{Regime: core.KnowUpperBound, Looseness: []float64{2, 2}}
		}, "strictly ascending"},
		{"grid on none", func(s *Spec) {
			s.Knowledge = KnowledgeSpec{Regime: core.KnowNone, Looseness: []float64{2}}
		}, "meaningless"},
		{"grid on exact", func(s *Spec) {
			s.Knowledge = KnowledgeSpec{Regime: core.KnowExact, Looseness: []float64{2}}
		}, "no looseness grid"},
		{"unknown regime", func(s *Spec) {
			s.Knowledge = KnowledgeSpec{Regime: "psychic"}
		}, "unknown regime"},
		{"none with a baseline", func(s *Spec) {
			s.Baseline = &AlgoSpec{Name: "nonuniform-mis-delta"}
			s.Knowledge = KnowledgeSpec{Regime: core.KnowNone}
		}, "cannot run"},
		{"unknown scheduler kind", func(s *Spec) {
			s.Scheduler = SchedSpec{Kind: "chaotic"}
		}, "unknown kind"},
		{"negative max_delay", func(s *Spec) {
			s.Scheduler = SchedSpec{Kind: SchedStaggered, MaxDelay: -1}
		}, "must be >= 0"},
		{"max_delay on permuted", func(s *Spec) {
			s.Scheduler = SchedSpec{Kind: SchedPermuted, MaxDelay: 4}
		}, "only meaningful"},
		{"seed on lockstep", func(s *Spec) {
			s.Scheduler = SchedSpec{Seed: 7}
		}, "takes no seed"},
		{"seed on modular", func(s *Spec) {
			s.Scheduler = SchedSpec{Kind: SchedModular, MaxDelay: 16, Seed: 7}
		}, "takes no seed"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: not rejected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}

	// The exhaustive-report contract: multiple problems surface together.
	s := validSpec()
	s.Knowledge = KnowledgeSpec{Regime: core.KnowUpperBound, Looseness: []float64{0.5, 4, 2}}
	err := s.Validate()
	if err == nil {
		t.Fatal("doubly-bad grid not rejected")
	}
	if !strings.Contains(err.Error(), ">= 1") || !strings.Contains(err.Error(), "strictly ascending") {
		t.Errorf("error reports only part of the problems: %v", err)
	}
}

// TestLoosenessGridPlanShape pins the grid expansion: per (seed, rep) one
// baseline job per λ in grid order, then the uniform run, whose ratio is
// against the tightest (first-λ) baseline; labels carry the λ suffix only on
// non-exact jobs; ApproxJobs matches the real plan.
func TestLoosenessGridPlanShape(t *testing.T) {
	s := looseSpec(1, 2, 4)
	s.Seeds = []int64{3, 5}
	p, err := PlanOf(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Jobs(), 2*(3+1); got != want {
		t.Fatalf("plan has %d jobs, want %d", got, want)
	}
	if got := s.ApproxJobs(); got != p.Jobs() {
		t.Errorf("ApproxJobs = %d, plan = %d", got, p.Jobs())
	}
	for g := 0; g < 2; g++ {
		base := g * 4
		for i, lam := range []float64{1, 2, 4} {
			m := p.Metas[base+i]
			if m.Role != "baseline" || m.Know.Looseness != lam || m.RatioOf != -1 {
				t.Errorf("slot %d: %+v, want baseline λ=%g", base+i, m, lam)
			}
			if want := fmt.Sprintf("/lam=%g", lam); !strings.HasSuffix(p.Labels[base+i], want) {
				t.Errorf("slot %d label %q lacks %q", base+i, p.Labels[base+i], want)
			}
		}
		u := p.Metas[base+3]
		if u.Role != "uniform" || !u.Know.IsExact() {
			t.Errorf("slot %d: %+v, want exact uniform", base+3, u)
		}
		if u.RatioOf != base {
			t.Errorf("uniform slot %d ratios against %d, want tightest baseline %d", base+3, u.RatioOf, base)
		}
		if strings.Contains(p.Labels[base+3], "lam=") {
			t.Errorf("uniform label %q carries a λ suffix", p.Labels[base+3])
		}
	}
}

// TestLoosenessSweepMonotone runs a small upper-bound sweep end to end and
// checks the committed-slice invariant in miniature: baseline rounds are
// non-decreasing in λ, outputs stay valid at every λ, and the rendered
// section carries the knowledge header and the pivot table.
func TestLoosenessSweepMonotone(t *testing.T) {
	s := looseSpec(1, 2, 4, 16)
	s.Graph = GraphSpec{Family: "cycle", N: 96}
	b, err := Expand([]*Spec{s}, ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := sweep.Run(b.Jobs, sweep.Options{Parallel: 4})
	if err := results.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range b.Jobs {
		if err := b.Check(i, results[i].Res.Outputs); err != nil {
			t.Errorf("job %d (%s): %v", i, b.Jobs[i].Label, err)
		}
	}
	prev := 0
	for i := 0; i < 4; i++ { // the first (seed, rep) group's baselines
		r := results[i].Res.Rounds
		if r < prev {
			t.Errorf("baseline rounds fell from %d to %d at λ=%g", prev, r, b.Metas[i].Know.Looseness)
		}
		prev = r
	}
	if results[3].Res.Rounds <= results[0].Res.Rounds {
		t.Errorf("λ=16 baseline (%d rounds) is no slower than λ=1 (%d): the sweep axis is dead",
			results[3].Res.Rounds, results[0].Res.Rounds)
	}

	out := renderBatch(t, b, results)
	for _, want := range []string{
		"knowledge: upper-bound(λ=1,2,4,16)",
		"@ λ=16",
		"Overhead vs looseness",
		"| seed | rep | uniform | λ=1 | λ=2 | λ=4 | λ=16 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered document lacks %q:\n%s", want, out)
		}
	}
}

// TestAdversarialRenderDeterministicAcrossParallelism is the scheduler
// acceptance invariant: an adversarially scheduled spec (staggered wake-ups
// plus permuted frontiers) renders byte-identical markdown at any sweep
// parallelism, reproducible across full re-expansions from the spec alone.
func TestAdversarialRenderDeterministicAcrossParallelism(t *testing.T) {
	specs := func() []*Spec {
		s := validSpec()
		s.Baseline = &AlgoSpec{Name: "nonuniform-mis-delta"}
		s.Seeds = []int64{1, 2}
		s.Scheduler = SchedSpec{Kind: SchedStaggeredPermuted, Seed: 7}
		return []*Spec{s}
	}
	render := func(parallel int) string {
		b, err := Expand(specs(), ExpandOptions{})
		if err != nil {
			t.Fatal(err)
		}
		results, _ := sweep.Run(b.Jobs, sweep.Options{Parallel: parallel})
		if err := results.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return renderBatch(t, b, results)
	}
	seq := render(1)
	for _, parallel := range []int{1, 4} {
		if got := render(parallel); got != seq {
			t.Fatalf("parallel=%d render differs:\n--- seq ---\n%s\n--- got ---\n%s", parallel, seq, got)
		}
	}
	if !strings.Contains(seq, "scheduler: staggered-permuted(max=8, seed=7)") {
		t.Errorf("rendered document lacks the scheduler header:\n%s", seq)
	}

	// The adversary must be live: the same spec under lockstep renders
	// different rounds.
	lockstep := specs()
	lockstep[0].Scheduler = SchedSpec{}
	b, err := Expand(lockstep, ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := sweep.Run(b.Jobs, sweep.Options{Parallel: 1})
	if strings.ReplaceAll(seq, " · scheduler: staggered-permuted(max=8, seed=7)", "") == renderBatch(t, b, results) {
		t.Error("adversarial schedule produced the lockstep document: the scheduler is a no-op")
	}
}

// TestKnowledgeSliceCommitted keeps the committed scenarios/knowledge corpus
// loadable and on-axis: at least three looseness sweeps over distinct
// problems plus one adversarial-scheduler spec.
func TestKnowledgeSliceCommitted(t *testing.T) {
	specs, err := LoadDir(filepath.Join("..", "..", "scenarios", "knowledge"))
	if err != nil {
		t.Fatal(err)
	}
	sweeps, scheds := 0, 0
	problems := make(map[string]bool)
	for _, s := range specs {
		if s.Knowledge.Regime == core.KnowUpperBound && len(s.Knowledge.Looseness) >= 3 {
			sweeps++
			problems[s.Algorithm.Name] = true
		}
		if !s.Scheduler.IsDefault() {
			scheds++
		}
	}
	if sweeps < 3 || len(problems) < 3 {
		t.Errorf("slice has %d looseness sweeps over %d problems, want >= 3 distinct", sweeps, len(problems))
	}
	if scheds < 1 {
		t.Error("slice has no adversarial-scheduler spec")
	}
	if _, err := Expand(specs, ExpandOptions{}); err != nil {
		t.Fatal(err)
	}
}
