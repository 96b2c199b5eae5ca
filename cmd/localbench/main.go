// Command localbench runs a directory of declarative scenario specs (see
// internal/scenario) and prints one markdown section per scenario. The
// paper's Table 1 rows, Corollary 1 and Observation 2.1 live as specs under
// scenarios/paper (DESIGN.md §3 maps each experiment to its specs);
// EXPERIMENTS.md and the committed BENCH.json are regenerated from them.
//
// Usage:
//
//	localbench -scenarios dir [-exp name] [-seed N] [-parallel N]
//	           [-json path] [-corpus-dir dir]
//	           [-cpuprofile path] [-memprofile path]
//
// Every *.json spec in the directory is validated, expanded into sweep jobs
// and run through the internal/sweep scheduler (N whole simulations in
// flight with -parallel N; graphs come from a shared graph.Corpus so no
// family is generated twice). The sweep picks each simulation's engine
// worker count: parallel engines at -parallel 1, sequential ones otherwise.
// -exp filters scenarios by name, and -seed shifts every scenario's seed
// grid (-seed 1, the default, runs the corpus exactly as committed). The
// output contains only deterministic fields, so it is byte-identical for
// every -parallel value — CI diffs a sequential against a fully parallel
// run.
//
// With -corpus-dir, the graph corpus is backed by the content-addressed CSR
// image store in that directory (the same format cmd/graphgen -store writes
// and localserved/localsweepd consume): graphs whose image exists load from
// disk instead of regenerating, and freshly generated graphs persist their
// image for the next run or replica. The output is byte-identical either
// way — the store only changes where the CSR bytes come from.
//
// With -json, the complete schema-4 benchfmt document (schema documented in
// EXPERIMENTS.md: per-job wall time, allocations and node-steps, the sweep
// block and the instruction-budget block) is additionally written to the
// given path; BENCH.json at the repo root is this document for
// scenarios/paper and is guarded by cmd/benchguard in CI. The profile flags
// capture standard pprof profiles of the whole run, so hot-path regressions
// can be diagnosed without editing code.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/unilocal/unilocal/internal/benchfmt"
	"github.com/unilocal/unilocal/internal/cliutil"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "localbench:", err)
		os.Exit(1)
	}
}

var (
	flagExp      = flag.String("exp", "all", "scenario name to run, or 'all'")
	flagScen     = flag.String("scenarios", "", "directory of scenario specs to run (required; scenarios/paper holds the paper's experiments)")
	flagSeed     = flag.Int64("seed", 1, "simulation seed")
	flagParallel = flag.Int("parallel", 1, "simulations in flight (0 = GOMAXPROCS); output is byte-identical for any value")
	flagJSON     = flag.String("json", "", "write machine-readable results to this path")
	flagCorpus   = flag.String("corpus-dir", "", "content-addressed CSR image store directory backing the graph corpus (shared with graphgen -store and localserved -corpus-dir)")
	flagCPU      = flag.String("cpuprofile", "", "write a CPU profile to this path")
	flagMem      = flag.String("memprofile", "", "write a heap profile to this path")
)

func run() error {
	flag.Parse()
	if *flagScen == "" {
		return fmt.Errorf("-scenarios dir is required (scenarios/paper holds the paper's experiments)")
	}
	specs, err := loadSpecs()
	if err != nil {
		return err
	}
	corpus := graph.NewCorpus()
	if *flagCorpus != "" {
		store, err := graph.OpenStore(*flagCorpus)
		if err != nil {
			return err
		}
		corpus.AttachStore(store)
	}
	if *flagCPU != "" {
		f, err := os.Create(*flagCPU)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := runScenarios(specs, corpus); err != nil {
		return err
	}
	return writeMemProfile()
}

// loadSpecs loads and validates the -scenarios directory, filtered by -exp.
func loadSpecs() ([]*scenario.Spec, error) {
	if err := cliutil.Dir("-scenarios", *flagScen); err != nil {
		return nil, err
	}
	specs, err := scenario.LoadDir(*flagScen)
	if err != nil {
		return nil, err
	}
	want := strings.ToLower(*flagExp)
	if want == "all" {
		return specs, nil
	}
	for _, s := range specs {
		if s.Name == want {
			return []*scenario.Spec{s}, nil
		}
	}
	return nil, fmt.Errorf("no scenario named %q in %s", want, *flagScen)
}

// runScenarios runs every spec as shard 0/1 through serve.ExecuteShard —
// the executor of every localserved front, here with all specs' jobs in one
// sweep under one -parallel budget — and prints the markdown table that
// scenario.Table.Add assembles. Under -json it also writes the benchfmt
// document: scenario.SlotsDoc's records with each slot's measurements, and
// the sweep and instruction blocks. Sharing the path is what makes a served
// response byte-identical to this command's output for the same spec.
func runScenarios(specs []*scenario.Spec, corpus *graph.Corpus) error {
	docs, stats, err := serve.ExecuteShard(specs, scenario.Shard{Index: 0, Count: 1}, serve.ExecOptions{
		Corpus:     corpus,
		SeedOffset: *flagSeed - 1,
		Parallel:   *flagParallel,
	})
	if err != nil {
		return err
	}
	var tab scenario.Table
	var records []benchfmt.Record
	for si, d := range docs {
		p, err := scenario.PlanOf(specs[si], *flagSeed-1)
		if err != nil {
			return err
		}
		if err := tab.Add(p, d.Graph, d.Slots); err != nil {
			return err
		}
		doc, err := scenario.SlotsDoc(p, d.Graph, d.Slots, *flagSeed)
		if err != nil {
			return err
		}
		for i, rec := range doc.Results {
			sl := d.Slots[i]
			rec.WallNs, rec.Allocs, rec.Steps = sl.Wall.Nanoseconds(), sl.Allocs, sl.Steps
			records = append(records, rec)
		}
	}
	var md bytes.Buffer
	if err := tab.Write(&md); err != nil {
		return err
	}
	if _, err := os.Stdout.Write(md.Bytes()); err != nil {
		return err
	}
	if *flagJSON == "" {
		return nil
	}
	doc := &benchfmt.Doc{
		SchemaVersion: benchfmt.SchemaVersion,
		GeneratedBy:   "cmd/localbench -scenarios",
		Seed:          *flagSeed,
		Parallel:      *flagParallel,
		Sweep: benchfmt.SweepStats{
			Jobs:         stats.Jobs,
			Workers:      stats.Workers,
			WallNs:       stats.Wall.Nanoseconds(),
			JobsPerSec:   stats.JobsPerSec,
			EngineAllocs: stats.EngineAllocs,
		},
		Results: records,
	}
	if stats.NodeSteps > 0 {
		doc.Instr = &benchfmt.InstrStats{
			NodeSteps:         stats.NodeSteps,
			StepsPerJob:       float64(stats.NodeSteps) / float64(stats.Jobs),
			NsPerStep:         float64(stats.Wall.Nanoseconds()) / float64(stats.NodeSteps),
			FrontierOccupancy: stats.FrontierOccupancy,
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*flagJSON, append(data, '\n'), 0o644)
}

// writeMemProfile honours -memprofile after a run (no-op when unset).
func writeMemProfile() error {
	if *flagMem == "" {
		return nil
	}
	f, err := os.Create(*flagMem)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
