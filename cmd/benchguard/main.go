// Command benchguard compares a freshly regenerated BENCH.json against the
// committed one (benchstat-style, but over the localbench record schema
// declared in internal/benchfmt) and fails loudly on regressions:
//
//   - Deterministic fields (experiment, label, algorithm, n, rounds,
//     messages, steps, ratio) must match record for record: a mismatch means
//     the reproduction itself changed, which a perf PR must never do
//     silently. The schema-v4 instruction block's deterministic members
//     (node-steps, steps/job, frontier occupancy) are held to the same
//     standard.
//
//   - Pinned hot-path groups (-pin, default the transformer-heavy E1, E3
//     and E6 specs of scenarios/paper) must not regress their wall time by
//     more than -tolerance (default 20%). A pin is a case-sensitive prefix
//     of the records' experiment (scenario) names, and its group is every
//     record it matches; a pin that matches no record is an error, so a
//     renamed corpus cannot silently disarm the gate. Because the committed
//     baseline and the fresh file are usually produced on different
//     machines (author laptop vs CI runner), the gate is machine-normalized
//     by default: old wall times are rescaled by the speed ratio measured on
//     the *non-pinned* records (so the gated quantity never dilutes its own
//     denominator), and only a pinned hot path growing relative to that
//     reference trips the gate. -normalize=false compares raw wall times
//     (same-machine A/B runs); -tolerance -1 disables the timing gate.
//
//   - The instructions-per-job trend (schema v4: sweep ns per node-step)
//     must not regress by more than -instr-tolerance (default 20%) after
//     the same machine normalization. The trend line is printed whether it
//     moved up or down, so wins land in the CI log too; -instr-tolerance -1
//     disables only this gate.
//
// Files that cannot be compared meaningfully — different seeds, different
// -parallel/-workers settings, or an unknown schema version — are
// an error, not a silent skip: a stale or misgenerated baseline must not
// disable the gate while CI stays green.
//
// Usage:
//
//	benchguard -old BENCH.json -new BENCH.ci.json [-tolerance 0.20]
//	           [-instr-tolerance 0.20] [-pin paper-e01-,paper-e03-,paper-e06-]
//	           [-normalize=true]
//
// CI regenerates BENCH.ci.json on every commit and runs this guard against
// the committed BENCH.json, so a hot-path regression fails the build with a
// per-pin wall-time table instead of drifting by unnoticed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/unilocal/unilocal/internal/benchfmt"
)

var (
	flagOld       = flag.String("old", "BENCH.json", "committed baseline")
	flagNew       = flag.String("new", "BENCH.ci.json", "freshly regenerated results")
	flagTolerance = flag.Float64("tolerance", 0.20, "max allowed wall-time regression on pinned groups (negative disables timing checks)")
	flagInstrTol  = flag.Float64("instr-tolerance", 0.20, "max allowed ns-per-node-step regression on the schema-v4 instruction trend (negative disables it)")
	flagPin       = flag.String("pin", "paper-e01-,paper-e03-,paper-e06-", "comma-separated experiment-name prefixes pinned for the timing check (case-sensitive; each must match a record)")
	flagNormalize = flag.Bool("normalize", true, "rescale old wall times by the machine-speed ratio of the non-pinned records instead of comparing raw wall times")
)

// options are the guard's thresholds, split from the flags so tests can
// drive guard directly.
type options struct {
	tolerance, instrTol float64
	pins                []string
	normalize           bool
}

func main() {
	flag.Parse()
	opt := options{
		tolerance: *flagTolerance,
		instrTol:  *flagInstrTol,
		normalize: *flagNormalize,
	}
	for _, p := range strings.Split(*flagPin, ",") {
		if p = strings.TrimSpace(p); p != "" {
			opt.pins = append(opt.pins, p)
		}
	}
	old, err := load(*flagOld)
	if err == nil {
		var fresh *benchfmt.Doc
		if fresh, err = load(*flagNew); err == nil {
			err = guard(os.Stdout, old, fresh, opt)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func load(path string) (*benchfmt.Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchfmt.Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.SchemaVersion != benchfmt.SchemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, want %d (regenerate with cmd/localbench)",
			path, d.SchemaVersion, benchfmt.SchemaVersion)
	}
	return &d, nil
}

// guard runs every check on a (committed, fresh) pair, reporting to w.
func guard(w io.Writer, old, fresh *benchfmt.Doc, opt options) error {
	if err := checkDeterministic(old, fresh); err != nil {
		return err
	}
	fmt.Fprintf(w, "benchguard: %d records deterministic-identical (seed %d)\n", len(old.Results), old.Seed)
	for _, p := range opt.pins {
		if !matchesAny(old, p) {
			return fmt.Errorf("pin %q matches no record (pins are case-sensitive experiment-name prefixes)", p)
		}
	}
	if opt.tolerance < 0 && opt.instrTol < 0 {
		fmt.Fprintln(w, "benchguard: timing checks disabled")
		return nil
	}
	if old.Parallel != fresh.Parallel || old.Workers != fresh.Workers {
		return fmt.Errorf("parallel/workers differ (%d/%d vs %d/%d): regenerate both files with the same flags, or pass -tolerance -1 to skip timing",
			old.Parallel, old.Workers, fresh.Parallel, fresh.Workers)
	}
	return checkTimings(w, old, fresh, opt)
}

// checkDeterministic requires the reproduction (what ran, and what it
// computed) to be unchanged record for record.
func checkDeterministic(old, fresh *benchfmt.Doc) error {
	if old.Seed != fresh.Seed {
		return fmt.Errorf("incomparable files: seeds differ (%d vs %d)", old.Seed, fresh.Seed)
	}
	if len(old.Results) != len(fresh.Results) {
		return fmt.Errorf("record count changed: %d vs %d", len(old.Results), len(fresh.Results))
	}
	if (old.Instr == nil) != (fresh.Instr == nil) {
		return fmt.Errorf("instruction block present in one file only (old %v, new %v): regenerate both with the same localbench",
			old.Instr != nil, fresh.Instr != nil)
	}
	if o, n := old.Instr, fresh.Instr; o != nil {
		if o.NodeSteps != n.NodeSteps || o.StepsPerJob != n.StepsPerJob || o.FrontierOccupancy != n.FrontierOccupancy {
			return fmt.Errorf("instruction block deterministic fields diverged: steps %d→%d steps/job %.2f→%.2f occupancy %.4f→%.4f",
				o.NodeSteps, n.NodeSteps, o.StepsPerJob, n.StepsPerJob, o.FrontierOccupancy, n.FrontierOccupancy)
		}
	}
	for i := range old.Results {
		o, n := old.Results[i], fresh.Results[i]
		if o.Experiment != n.Experiment || o.Label != n.Label || o.Algorithm != n.Algorithm || o.N != n.N {
			return fmt.Errorf("record %d identity changed: %s/%s/%s/n=%d vs %s/%s/%s/n=%d",
				i, o.Experiment, o.Label, o.Algorithm, o.N, n.Experiment, n.Label, n.Algorithm, n.N)
		}
		if o.Rounds != n.Rounds || o.Messages != n.Messages || o.Steps != n.Steps || o.Ratio != n.Ratio {
			return fmt.Errorf("record %d (%s/%s) deterministic fields diverged: rounds %d→%d messages %d→%d steps %d→%d ratio %.4f→%.4f",
				i, o.Experiment, o.Label, o.Rounds, n.Rounds, o.Messages, n.Messages, o.Steps, n.Steps, o.Ratio, n.Ratio)
		}
	}
	return nil
}

// matchesAny reports whether pin prefixes any record's experiment name.
func matchesAny(d *benchfmt.Doc, pin string) bool {
	for _, r := range d.Results {
		if strings.HasPrefix(r.Experiment, pin) {
			return true
		}
	}
	return false
}

// pinOf returns the first pin prefixing experiment, or "".
func pinOf(pins []string, experiment string) string {
	for _, p := range pins {
		if strings.HasPrefix(experiment, p) {
			return p
		}
	}
	return ""
}

// checkTimings compares per-pin wall time, benchstat-style: each pin's group
// is the sum over the records it matches. With normalize, old wall times are
// rescaled by the machine-speed ratio measured on the non-pinned records,
// cancelling uniform host differences without letting a pinned regression
// inflate its own denominator (a 1.5x slowdown of the heaviest pinned group
// would otherwise drag the whole-suite factor up and mask itself).
func checkTimings(w io.Writer, old, fresh *benchfmt.Doc, opt options) error {
	sum := func(d *benchfmt.Doc) (perPin map[string]int64, total, unpinned int64) {
		perPin = map[string]int64{}
		for _, r := range d.Results {
			total += r.WallNs
			if p := pinOf(opt.pins, r.Experiment); p != "" {
				perPin[p] += r.WallNs
			} else {
				unpinned += r.WallNs
			}
		}
		return perPin, total, unpinned
	}
	oldWall, oldTotal, oldRef := sum(old)
	newWall, newTotal, newRef := sum(fresh)
	if oldTotal == 0 || newTotal == 0 {
		fmt.Fprintln(w, "benchguard: no wall-time data; skipping timing checks")
		return nil
	}
	// factor rescales old wall times onto the new machine: with normalize
	// it is the speed ratio of the non-pinned reference set (falling back to
	// the whole suite when everything is pinned), without it 1 (raw
	// comparison).
	factor := 1.0
	mode := "raw"
	if opt.normalize {
		if oldRef > 0 && newRef > 0 {
			factor = float64(newRef) / float64(oldRef)
			mode = fmt.Sprintf("normalized vs non-pinned reference, machine factor %.2fx", factor)
		} else {
			factor = float64(newTotal) / float64(oldTotal)
			mode = fmt.Sprintf("normalized vs whole suite (no non-pinned reference), machine factor %.2fx", factor)
		}
	}
	fmt.Fprintf(w, "benchguard: timing mode: %s\n", mode)
	fmt.Fprintln(w, "| pin | old ms | new ms | delta |")
	fmt.Fprintln(w, "|---|---|---|---|")
	var failures []string
	for _, p := range opt.pins {
		o, n := oldWall[p], newWall[p]
		if o == 0 {
			continue
		}
		delta := float64(n)/(float64(o)*factor) - 1
		if opt.tolerance >= 0 && delta > opt.tolerance {
			failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (limit %.0f%%)",
				p, 100*delta, 100*opt.tolerance))
		}
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %+.1f%% |\n", p, float64(o)/1e6, float64(n)/1e6, 100*delta)
	}
	if old.Sweep.JobsPerSec > 0 && fresh.Sweep.JobsPerSec > 0 {
		delta := fresh.Sweep.JobsPerSec/old.Sweep.JobsPerSec - 1
		fmt.Fprintf(w, "sweep throughput: %.1f → %.1f jobs/s (%+.1f%%), engine allocs %d → %d\n",
			old.Sweep.JobsPerSec, fresh.Sweep.JobsPerSec, 100*delta,
			old.Sweep.EngineAllocs, fresh.Sweep.EngineAllocs)
	}
	// Instructions-per-job trend (schema v4): ns per node-step over the whole
	// sweep, machine-normalized by the same factor as the pinned wall gates.
	// Printed unconditionally — improvements should be as visible in the CI
	// log as regressions are fatal.
	if o, n := old.Instr, fresh.Instr; o != nil && n != nil && o.NsPerStep > 0 && n.NsPerStep > 0 {
		adjusted := o.NsPerStep * factor
		delta := n.NsPerStep/adjusted - 1
		fmt.Fprintf(w, "instruction budget: %.1f → %.1f ns/step (%+.1f%% after normalization; %.0f steps/job, frontier occupancy %.3f)\n",
			o.NsPerStep, n.NsPerStep, 100*delta, n.StepsPerJob, n.FrontierOccupancy)
		if opt.instrTol >= 0 && delta > opt.instrTol {
			failures = append(failures, fmt.Sprintf("ns/step regressed %.1f%% (limit %.0f%%)",
				100*delta, 100*opt.instrTol))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("pinned hot-path regression: %s", strings.Join(failures, "; "))
	}
	return nil
}
