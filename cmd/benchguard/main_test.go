package main

import (
	"io"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/benchfmt"
)

// pair builds a committed/fresh document pair: one pinned hot-path spec
// ("paper-e01-cycle") and one unpinned reference spec ("paper-e08-gnp8"),
// two records each, with identical deterministic fields and wall times.
func pair() (old, fresh *benchfmt.Doc) {
	mk := func() *benchfmt.Doc {
		return &benchfmt.Doc{
			SchemaVersion: benchfmt.SchemaVersion,
			Seed:          1,
			Parallel:      1,
			Instr:         &benchfmt.InstrStats{NodeSteps: 400, StepsPerJob: 100, NsPerStep: 10, FrontierOccupancy: 0.5},
			Results: []benchfmt.Record{
				{Experiment: "paper-e01-cycle", Label: "baseline/seed=1/rep=0", Algorithm: "nonuniform-mis-delta", N: 256, Rounds: 23, Messages: 9936, Steps: 100, WallNs: 1e6},
				{Experiment: "paper-e01-cycle", Label: "uniform/seed=1/rep=0", Algorithm: "uniform-mis-delta", N: 256, Rounds: 515, Messages: 16458, Steps: 100, WallNs: 3e6, Ratio: 22.39},
				{Experiment: "paper-e08-gnp8", Label: "uniform/seed=0/rep=0", Algorithm: "luby-mis", N: 1024, Rounds: 8, Messages: 20191, Steps: 100, WallNs: 2e6},
				{Experiment: "paper-e08-gnp8", Label: "uniform/seed=1/rep=0", Algorithm: "luby-mis", N: 1024, Rounds: 7, Messages: 19661, Steps: 100, WallNs: 2e6},
			},
		}
	}
	return mk(), mk()
}

var defaultOpts = options{tolerance: 0.20, instrTol: 0.20, pins: []string{"paper-e01-"}, normalize: true}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("guard passed, want an error mentioning %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestGuardPassesIdenticalPair(t *testing.T) {
	old, fresh := pair()
	if err := guard(io.Discard, old, fresh, defaultOpts); err != nil {
		t.Fatal(err)
	}
}

// A pin that matches nothing would leave the timing gate with nothing to
// gate; it must fail, including when the timing checks are disabled and
// including a pin that differs from a real name only in case.
func TestGuardUnmatchedPin(t *testing.T) {
	for _, pins := range [][]string{{"E1"}, {"PAPER-E01-"}, {"paper-e01-", "paper-e99-"}} {
		old, fresh := pair()
		opt := defaultOpts
		opt.pins = pins
		wantErr(t, guard(io.Discard, old, fresh, opt), "matches no record")
		opt.tolerance, opt.instrTol = -1, -1
		wantErr(t, guard(io.Discard, old, fresh, opt), "matches no record")
	}
}

func TestGuardRecordCountChange(t *testing.T) {
	old, fresh := pair()
	fresh.Results = fresh.Results[:3]
	wantErr(t, guard(io.Discard, old, fresh, defaultOpts), "record count changed: 4 vs 3")
}

func TestGuardDeterministicDivergence(t *testing.T) {
	for name, mutate := range map[string]func(d *benchfmt.Doc){
		"rounds":   func(d *benchfmt.Doc) { d.Results[1].Rounds++ },
		"messages": func(d *benchfmt.Doc) { d.Results[2].Messages++ },
		"steps":    func(d *benchfmt.Doc) { d.Results[0].Steps++ },
		"ratio":    func(d *benchfmt.Doc) { d.Results[1].Ratio = 1 },
	} {
		old, fresh := pair()
		mutate(fresh)
		err := guard(io.Discard, old, fresh, defaultOpts)
		if err == nil || !strings.Contains(err.Error(), "deterministic fields diverged") {
			t.Errorf("%s divergence: got %v", name, err)
		}
	}
	old, fresh := pair()
	fresh.Results[3].Experiment = "paper-e08-gnp9"
	wantErr(t, guard(io.Discard, old, fresh, defaultOpts), "identity changed")
	old, fresh = pair()
	fresh.Instr.NodeSteps++
	wantErr(t, guard(io.Discard, old, fresh, defaultOpts), "instruction block deterministic fields diverged")
}

// TestGuardNormalizedRegression runs the fresh file on a machine twice as
// slow: a uniform 2x slowdown passes under normalization (and fails raw),
// while the pinned group slowing 1.5x further relative to the unpinned
// reference fails.
func TestGuardNormalizedRegression(t *testing.T) {
	slow := func(d *benchfmt.Doc, pinned, unpinned float64) {
		for i := range d.Results {
			f := unpinned
			if strings.HasPrefix(d.Results[i].Experiment, "paper-e01-") {
				f = pinned
			}
			d.Results[i].WallNs = int64(float64(d.Results[i].WallNs) * f)
		}
		d.Instr.NsPerStep *= unpinned
	}
	old, fresh := pair()
	slow(fresh, 2, 2)
	if err := guard(io.Discard, old, fresh, defaultOpts); err != nil {
		t.Fatalf("uniform machine slowdown tripped the normalized gate: %v", err)
	}
	raw := defaultOpts
	raw.normalize = false
	wantErr(t, guard(io.Discard, old, fresh, raw), "paper-e01- regressed 100.0%")

	old, fresh = pair()
	slow(fresh, 3, 2)
	var out strings.Builder
	wantErr(t, guard(&out, old, fresh, defaultOpts), "paper-e01- regressed 50.0%")
	if !strings.Contains(out.String(), "machine factor 2.00x") {
		t.Errorf("report lacks the machine factor:\n%s", out.String())
	}
	// The wall gate disabled, the instruction trend (unchanged after
	// normalization) passes.
	off := defaultOpts
	off.tolerance = -1
	if err := guard(io.Discard, old, fresh, off); err != nil {
		t.Fatalf("instruction gate tripped on a normalized-flat trend: %v", err)
	}
}
