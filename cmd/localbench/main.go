// Command localbench runs a directory of declarative scenario specs (see
// internal/scenario) and prints one markdown section per scenario. The
// paper's Table 1 rows, Corollary 1 and Observation 2.1 live as specs under
// scenarios/paper (DESIGN.md §3 maps each experiment to its specs);
// EXPERIMENTS.md and the committed BENCH.json are regenerated from them.
//
// Usage:
//
//	localbench -scenarios dir [-exp name] [-seed N] [-parallel N]
//	           [-workers N] [-json path] [-corpus-dir dir]
//	           [-cpuprofile path] [-memprofile path]
//	localbench -scenarios dir -pgo default.pgo [-pgo-iters N] [...]
//
// Every *.json spec in the directory is validated, expanded into sweep jobs
// and run through the internal/sweep scheduler (N whole simulations in
// flight with -parallel N; graphs come from a shared graph.Corpus so no
// family is generated twice). -exp filters scenarios by name, and -seed
// shifts every scenario's seed grid (-seed 1, the default, runs the corpus
// exactly as committed). The output contains only deterministic fields, so
// it is byte-identical for every -parallel and -workers value — CI diffs a
// sequential against a fully parallel run.
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
//
// With -pgo, the loaded scenario batch is executed repeatedly under a CPU
// profile written to the given path — the representative workload profile
// committed as default.pgo next to each main package, which makes every
// plain `go build` profile-guided (see DESIGN.md §2.13 and `make pgo`).
// The mode exists to produce one artifact, the profile: tables and -json
// output are suppressed, and -cpuprofile is rejected (both flags would
// start the same profiler).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/unilocal/unilocal/internal/cliutil"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
	"github.com/unilocal/unilocal/internal/sweep"
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
	flagWorkers  = flag.Int("workers", 0, "engine worker count per simulation (0 = auto, 1 = sequential)")
	flagJSON     = flag.String("json", "", "write machine-readable results to this path")
	flagCorpus   = flag.String("corpus-dir", "", "content-addressed CSR image store directory backing the graph corpus (shared with graphgen -store and localserved -corpus-dir)")
	flagCPU      = flag.String("cpuprofile", "", "write a CPU profile to this path")
	flagMem      = flag.String("memprofile", "", "write a heap profile to this path")
	flagPGO      = flag.String("pgo", "", "run the scenario batch repeatedly under a CPU profile and write it to this path (the default.pgo workflow); suppresses all other output")
	flagPGOIters = flag.Int("pgo-iters", 3, "batch repetitions under -pgo (more = smoother profile)")
)

func run() error {
	flag.Parse()
	if *flagScen == "" {
		return fmt.Errorf("-scenarios dir is required (scenarios/paper holds the paper's experiments)")
	}
	if *flagPGO != "" && *flagCPU != "" {
		return fmt.Errorf("-pgo and -cpuprofile both start the CPU profiler; use one")
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
	if *flagPGO != "" {
		return runPGO(specs, corpus)
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

// runScenarios runs the specs through serve.Execute — the same
// request→document path cmd/localserved serves — and prints the
// deterministic markdown (plus the JSON document under -json). Sharing the
// path is what makes a served response byte-identical to this command's
// output for the same spec.
func runScenarios(specs []*scenario.Spec, corpus *graph.Corpus) error {
	out, err := serve.Execute(specs, serve.ExecOptions{
		Corpus:        corpus,
		SeedOffset:    *flagSeed - 1,
		Parallel:      *flagParallel,
		EngineWorkers: *flagWorkers,
	})
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(out.Markdown); err != nil {
		return err
	}
	if *flagJSON == "" {
		return nil
	}
	doc, err := scenario.Doc(out.Batch, out.Results, out.Stats, *flagSeed, *flagParallel, *flagWorkers)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*flagJSON, append(data, '\n'), 0o644)
}

// runPGO expands the specs once and runs the batch -pgo-iters times under
// one CPU profile written to the -pgo path. Over scenarios/paper this is the
// job set BENCH.json measures — the engine's word scans, the lane traffic
// and the transformer wrappers in their real mix — so the profile steers PGO
// at the loops that matter. The first iteration warms the run-state pools;
// later iterations profile the steady state a long-lived server runs in.
func runPGO(specs []*scenario.Spec, corpus *graph.Corpus) error {
	batch, err := scenario.Expand(specs, scenario.ExpandOptions{Corpus: corpus, SeedOffset: *flagSeed - 1})
	if err != nil {
		return err
	}
	f, err := os.Create(*flagPGO)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	defer pprof.StopCPUProfile()
	for i := 0; i < max(*flagPGOIters, 1); i++ {
		results, _ := sweep.Run(batch.Jobs, sweep.Options{
			Parallel:      *flagParallel,
			EngineWorkers: *flagWorkers,
		})
		if err := sweep.FirstErr(results); err != nil {
			return fmt.Errorf("pgo sweep iteration %d: %w", i, err)
		}
	}
	return nil
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
