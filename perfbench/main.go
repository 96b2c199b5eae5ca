// Command perfbench is the repository's benchmark. It runs one named
// workload against the localbench, localsweepd and localserved binaries
// built from the checkout, checks every output it can against an oracle,
// and prints each metric by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (perfbench/run.sh builds everything and supplies -root, -bin and
// -work):
//
//	perfbench -root dir -bin dir -work dir -workload corpus|serve|jobs
//	          [-seed N] [-seconds S] [-trace 0|1]
//	          [-serve-rate R] [-jobs-rate R]
//
// With -trace 0 the metrics are the end-to-end ones, measured through the
// binaries' stable surfaces (CLIs and HTTP APIs). With -trace 1 the run also
// reads the binaries' counters and then replays the workload's inputs
// in-process and sequentially, recording spans around calls into each
// layer's exported functions; the metrics are then the per-layer ones.
// README.md in this directory documents the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/unilocal/unilocal/internal/scenario"
)

var (
	flagRoot      = flag.String("root", ".", "repository checkout root")
	flagBin       = flag.String("bin", "", "directory holding the built localbench, localserved and localsweepd")
	flagWork      = flag.String("work", "", "scratch directory for documents, spools and traces")
	flagWorkload  = flag.String("workload", "", "workload to run: corpus, serve or jobs")
	flagSeed      = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	flagSeconds   = flag.Int("seconds", 35, "how long one run measures")
	flagTrace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flagServeRate = flag.Float64("serve-rate", 6, "serve: open-loop POST /run rate (requests/s)")
	flagJobsRate  = flag.Float64("jobs-rate", 4, "jobs: open-loop POST /jobs rate (submissions/s)")
)

// benchCPUs is the load's parallelism: client threads and connections,
// localbench -parallel and the corpus replica count. It is pinned to the two
// CPUs the closed-loop sizes (serveCapacity, jobsCapacity) were calibrated
// on, so every machine runs the same workload.
const benchCPUs = 2

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"corpus": runCorpus,
	"serve":  runServe,
	"jobs":   runJobs,
}

func main() {
	flag.Parse()
	ok, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// bench is one run's environment and its accumulating report.
type bench struct {
	ctx     context.Context
	root    string
	bin     string
	work    string // this run's private scratch directory
	specs   string // the benchmark's own copies of the scenario specs
	warmup  []byte // the warm-up request's body (warmupSpec)
	seed    int64
	seconds time.Duration
	trace   bool
	conns   int // client threads and connections, localbench -parallel, replicas
	rep     *report
	procs   []*proc
}

func run() (bool, error) {
	w, ok := workloads[*flagWorkload]
	if !ok {
		return false, fmt.Errorf("unknown -workload %q (corpus, serve or jobs)", *flagWorkload)
	}
	if *flagBin == "" || *flagWork == "" {
		return false, errors.New("-bin and -work are required (perfbench/run.sh sets them)")
	}
	if *flagSeconds < 1 {
		return false, fmt.Errorf("-seconds %d must be at least 1", *flagSeconds)
	}
	specs := filepath.Join(*flagRoot, "perfbench", "specs")
	if err := checkSpecs(specs); err != nil {
		return false, err
	}
	warmup, err := os.ReadFile(filepath.Join(specs, "scenarios", warmupSpec+".json"))
	if err != nil {
		return false, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	work := filepath.Join(*flagWork, fmt.Sprintf("%s-%d", *flagWorkload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		ctx:     ctx,
		root:    *flagRoot,
		bin:     *flagBin,
		work:    work,
		specs:   specs,
		warmup:  warmup,
		seed:    *flagSeed,
		seconds: time.Duration(*flagSeconds) * time.Second,
		trace:   *flagTrace == 1,
		conns:   benchCPUs,
		rep:     newReport(),
	}
	defer b.stopAll()
	if err := w(b); err != nil {
		return false, err
	}
	if err := b.stopAll(); err != nil {
		return false, err
	}
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	if err := b.rep.conform(want, b.trace); err != nil {
		return false, err
	}
	return b.rep.print(os.Stdout)
}

// checkSpecs parses every spec copy the workloads use; the benchmark refuses
// to run on a copy the scenario layer rejects.
func checkSpecs(dir string) error {
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, err := scenario.Parse(data); err != nil {
			return fmt.Errorf("spec copy %s: %w", path, err)
		}
		n++
		return nil
	})
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("no spec copies under %s", dir)
	}
	return nil
}

// endToEnd lists the end-to-end metrics, every one of which a run with
// -trace 0 reports; BENCHMARK.json declares the same names and units.
var endToEnd = []unitOf{
	{"setup_s", "s"}, {"wall_s", "s"}, {"p50_ms", "ms"}, {"p85_ms", "ms"},
	{"capacity_rps", "1/s"}, {"max_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics a run with -trace 1 reports. A layer
// the workload does not exercise reports 0.
var perLayer = []unitOf{
	{"graph.build_ms", "ms"}, {"graph.corpus_hit_ratio", "ratio"},
	{"scenario.parse_us", "us"}, {"scenario.expand_ms", "ms"}, {"scenario.render_ms", "ms"},
	{"sweep.busy_frac", "ratio"}, {"sweep.jobs_per_s", "1/s"},
	{"local.ns_per_step", "ns"}, {"core.ns_per_step", "ns"}, {"lift.ns_per_step", "ns"},
	{"local.steps", "count"}, {"local.rounds", "count"}, {"local.messages", "count"},
	{"local.alloc_bytes_per_step", "B"}, {"local.gc_cpu_frac", "ratio"},
	{"problems.check_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.coalesced_frac", "ratio"},
	{"serve.rejected", "count"}, {"serve.queued_mean", "count"},
	{"serve.open_p50_ms", "ms"}, {"serve.open_p85_ms", "ms"},
	{"serve.exec_ms", "ms"}, {"serve.encode_ms", "ms"}, {"serve.handler_overhead_ms", "ms"},
	{"job.submit_p50_ms", "ms"}, {"job.append_ms", "ms"}, {"job.write_result_ms", "ms"},
	{"job.replay_ms", "ms"}, {"job.checkpoints", "count"}, {"job.coalesced", "count"},
	{"job.rate_limited", "count"},
	{"fabric.wall_s", "s"}, {"fabric.attempts_per_task", "ratio"}, {"fabric.retries", "count"},
	{"fabric.fallbacks", "count"}, {"fabric.overhead_s", "s"},
	{"loadgen.late_p95_ms", "ms"},
	{"self.graph_ms", "ms"}, {"self.scenario_ms", "ms"}, {"self.local_ms", "ms"},
	{"self.core_ms", "ms"}, {"self.lift_ms", "ms"}, {"self.problems_ms", "ms"},
	{"self.render_ms", "ms"}, {"self.serve_ms", "ms"}, {"self.job_ms", "ms"},
	{"trace.wall_ms", "ms"}, {"trace.layer_sum_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
}

type unitOf struct{ name, unit string }

// tailQuantile is the upper latency percentile the end-to-end metrics
// report; every workload leaves at least 17 samples beyond it. In serve's
// open loop the 90th percentile sat at the edge between slow requests that
// ran alone and slow requests that overlapped another (twice as long on a
// machine giving one core of throughput) and flipped between the two from
// run to run.
const tailQuantile = 0.85

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's operation counts, oracle mismatches and
// metrics.
type report struct {
	attempted  int64
	failed     int64
	retried    int64
	mismatches []string
	names      []string
	metrics    map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric; a name set twice keeps its first position.
func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// conform checks that the report holds exactly the declared metrics, in
// their declared order and units; with fill, a missing metric reports 0.
func (r *report) conform(want []unitOf, fill bool) error {
	if len(r.metrics) > len(want) {
		return fmt.Errorf("run set %d metrics, %d declared", len(r.metrics), len(want))
	}
	names := make([]string, 0, len(want))
	for _, w := range want {
		m, ok := r.metrics[w.name]
		switch {
		case !ok && !fill:
			return fmt.Errorf("metric %s not measured", w.name)
		case !ok:
			r.metrics[w.name] = metric{Value: 0, Unit: w.unit}
		case m.Unit != w.unit:
			return fmt.Errorf("metric %s in %s, declared in %s", w.name, m.Unit, w.unit)
		}
		names = append(names, w.name)
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("run set metrics outside the declared set: %v", r.names)
	}
	r.names = names
	return nil
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
}

// mismatch records an oracle mismatch; it fails the run.
func (r *report) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mismatches = append(r.mismatches, msg)
	r.failed++
	fmt.Fprintln(os.Stderr, "perfbench: mismatch:", msg)
}

// print writes one human-readable line per metric, then the JSON result
// line. It reports whether every oracle agreed.
func (r *report) print(f *os.File) (bool, error) {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(f, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "operations: %d attempted, %d failed, %d retried; %d oracle mismatches\n",
		r.attempted, r.failed, r.retried, len(r.mismatches))
	correct := len(r.mismatches) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return correct, err
}
