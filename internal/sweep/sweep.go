// Package sweep schedules batches of independent LOCAL simulations — the
// workload the paper implies: many (graph, algorithm, seed) runs per
// transformer, swept over graph families. Runs are embarrassingly parallel at
// run granularity, so the scheduler executes whole simulations concurrently
// over a bounded worker set while keeping everything the harness consumes
// deterministic:
//
//   - Result ordering is positional: results[i] always belongs to jobs[i],
//     regardless of completion order.
//   - Simulation outcomes (outputs, halt rounds, rounds, messages) are pure
//     functions of (graph, algorithm, seed) — the engine guarantees
//     byte-identical Results for any worker count — so a parallel sweep
//     reproduces a sequential one exactly.
//   - Per-job metrics avoid the global-runtime.MemStats hack: each worker
//     owns a pooled local.RunState and reads per-run allocation deltas from
//     its counter, which no concurrent run, GC cycle or unrelated goroutine
//     can perturb. (At Parallel == 1 the alloc metric is additionally
//     reproducible across invocations; in a parallel batch the job→worker
//     placement — and hence which jobs find a warm state — is
//     timing-dependent, though the counters themselves stay exact.)
//
// serve.ExecuteShard, the one executor of cmd/localbench and every
// localserved front, and the repo-level benchmarks submit their jobs here;
// Stats carries the batch-level throughput (jobs/sec, cumulative engine
// allocations) recorded in BENCH.json.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// ErrCanceled marks every result slot a canceled batch did not complete. It
// aliases local.ErrCanceled so one errors.Is check covers both a job the
// engine stopped mid-run and a job the scheduler never started; the slot
// errors additionally wrap the context's own error (context.Canceled or
// context.DeadlineExceeded).
var ErrCanceled = local.ErrCanceled

// Job specifies one independent simulation.
type Job struct {
	// Label identifies the job in harness output; the scheduler ignores it.
	Label string
	// Graph is the (immutable, shareable) topology to run on.
	Graph *graph.Graph
	// Algo returns the algorithm to simulate. It is invoked on the scheduler
	// worker executing the job, concurrently with other jobs' factories, so
	// it must be safe for concurrent use. Returning one shared memoized
	// algorithm value from many factories is both safe and preferred (the
	// plan cache is then paid once, see DESIGN.md §2.5).
	Algo func() local.Algorithm
	// Seed drives the run's randomness.
	Seed int64
	// MaxRounds caps the simulation; 0 means the engine default.
	MaxRounds int
	// Permute, when non-nil, selects the engine's adversarial per-round
	// delivery permutation for this job (see local.Options.Permute).
	Permute *local.Permute
}

// Result is the outcome of one job.
type Result struct {
	// Res is the simulation result, nil when Err is non-nil.
	Res *local.Result
	// Err is the simulation error, if any. One failing job does not stop the
	// batch; callers decide what a failure means for their sweep.
	Err error
	// Wall is the wall-clock duration of this run alone.
	Wall time.Duration
	// Allocs is the number of engine-buffer allocations this run performed
	// (the per-worker RunState counter delta). Warm runs on shapes the
	// worker has already seen report 0. The counter is exact — never
	// polluted by concurrent runs or GC — and reproducible across
	// invocations at Parallel == 1; in a parallel batch, which jobs land on
	// a warm worker depends on scheduling.
	Allocs uint64
}

// Stats aggregates one batch.
type Stats struct {
	// Jobs is the number of jobs executed.
	Jobs int
	// Workers is the resolved scheduler worker count.
	Workers int
	// Wall is the wall-clock duration of the whole batch.
	Wall time.Duration
	// JobsPerSec is Jobs divided by Wall.
	JobsPerSec float64
	// EngineAllocs is the sum of all per-job Allocs.
	EngineAllocs uint64
	// NodeSteps is the sum of all per-job Result.Steps — the batch's total
	// engine work in node-steps, deterministic at any parallelism (the
	// instruction-count proxy BENCH.json schema v4 pins).
	NodeSteps int64
	// StepSlots is the sum over jobs of Rounds × n — the node-steps a
	// frontier-less engine would execute. NodeSteps/StepSlots is the batch's
	// frontier occupancy.
	StepSlots int64
	// FrontierOccupancy is NodeSteps / StepSlots: the mean fraction of nodes
	// live per round across the batch (0 when the batch ran no rounds).
	FrontierOccupancy float64
}

// Options configures a batch.
type Options struct {
	// Parallel is the number of simulations in flight; 0 means GOMAXPROCS,
	// and the count is clamped to the job count. Parallel == 1 runs inline
	// on the calling goroutine with no scheduling overhead.
	Parallel int
	// EngineWorkers pins the per-simulation engine worker count. 0 picks the
	// sensible default for the batch shape: sequential engines when the
	// scheduler itself is parallel (run-level parallelism replaces
	// round-level parallelism without oversubscribing), GOMAXPROCS engines
	// when Parallel == 1. Only perfbench sets it (ROADMAP item 11).
	EngineWorkers int
	// Context, when non-nil, cancels the batch: no new job starts after it
	// fires, jobs already running stop at their next round boundary (the
	// engine checks it between rounds), and every slot that did not run to
	// completion carries an error wrapping ErrCanceled — never a zero
	// Result indistinguishable from a successful run. Results of jobs that
	// completed before the cancellation are kept, so callers see exactly
	// which prefix of work is trustworthy. nil means run the batch to
	// completion.
	Context context.Context
	// OnResult, when non-nil, is invoked once per job right after its result
	// lands at results[i] — the progress hook the serving layer's SSE streams
	// feed from. It is called from scheduler workers, concurrently with other
	// jobs' callbacks, so it must be safe for concurrent use and should be
	// cheap (it runs on the worker's critical path). Only jobs a worker
	// actually finished report — including jobs interrupted mid-run by a
	// fired context — slots stamped with ErrCanceled after the drain because
	// they never started do not.
	OnResult func(i int, r Result)
}

// Results is a batch's outcomes in job order. The helper methods are the
// slot bookkeeping shard executors and retry coordinators lean on: a slot
// is "complete" exactly when it carries a successful simulation, and
// cancellation is distinguishable from genuine failure without callers
// re-deriving either from error chains.
type Results []Result

// FirstIncomplete returns the index of the first slot that did not complete
// successfully — a nil Res or a non-nil Err, including canceled slots — or
// -1 when every slot completed. A non-negative return is what a shard-level
// retry must re-run.
func (rs Results) FirstIncomplete() int {
	for i := range rs {
		if rs[i].Err != nil || rs[i].Res == nil {
			return i
		}
	}
	return -1
}

// FirstErr returns the first error that is a genuine failure — not a
// cancellation — in job order; when the only errors are cancellations
// (slots stamped with ErrCanceled by a fired context) it returns the first
// of those instead, and nil when every slot completed. Retry bookkeeping
// depends on the distinction: a canceled slot is re-runnable as-is, while a
// failed slot would fail again deterministically.
func (rs Results) FirstErr() error {
	var canceled error
	for i := range rs {
		err := rs[i].Err
		if err == nil {
			continue
		}
		if errors.Is(err, ErrCanceled) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return err
	}
	return canceled
}

// Run executes the jobs and returns their results in job order plus the
// batch statistics. Deterministic fields of the results are identical for
// every Parallel and EngineWorkers setting. When Options.Context fires
// mid-batch the returned slice is partially filled: completed jobs keep
// their results, every other slot errors with ErrCanceled.
func Run(jobs []Job, opts Options) (Results, Stats) {
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(jobs) {
		parallel = len(jobs)
	}
	if parallel < 1 {
		parallel = 1
	}
	engineOpts := local.Options{Workers: opts.EngineWorkers, Context: opts.Context}
	if opts.EngineWorkers == 0 && parallel > 1 {
		engineOpts.Sequential = true
	}
	ctx := opts.Context

	results := make([]Result, len(jobs))
	start := time.Now()
	var cursor atomic.Int64
	worker := func() {
		// One pooled engine state per worker: jobs on this worker reuse its
		// buffers back to back, and the pool recycles it across batches.
		var st *local.RunState
		defer func() {
			if st != nil {
				st.Release()
			}
		}()
		for {
			// A fired context stops the claim loop; unclaimed slots are
			// stamped with the cancellation sentinel after the workers drain.
			if ctx != nil && ctx.Err() != nil {
				return
			}
			i := int(cursor.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			j := &jobs[i]
			if st == nil {
				st = local.AcquireRunState(j.Graph.N(), j.Graph.NumEdges())
			}
			o := engineOpts
			o.Seed = j.Seed
			o.MaxRounds = j.MaxRounds
			o.State = st
			o.Permute = j.Permute
			before := st.Allocs()
			t0 := time.Now()
			res, err := local.Run(j.Graph, j.Algo(), o)
			results[i] = Result{
				Res:    res,
				Err:    err,
				Wall:   time.Since(t0),
				Allocs: st.Allocs() - before,
			}
			if opts.OnResult != nil {
				opts.OnResult(i, results[i])
			}
		}
	}
	if parallel == 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		wg.Add(parallel)
		for w := 0; w < parallel; w++ {
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}

	if ctx != nil && ctx.Err() != nil {
		// Every slot the batch did not finish must be distinguishable from a
		// success: a claimed-and-interrupted job already carries the engine's
		// ErrCanceled, an unclaimed one gets the scheduler's sentinel here.
		// (All workers have returned, so the remaining zero slots are exactly
		// the jobs that never started.)
		for i := range results {
			if results[i].Res == nil && results[i].Err == nil {
				results[i].Err = fmt.Errorf("%w: %w: job %q never started", ErrCanceled, ctx.Err(), jobs[i].Label)
			}
		}
	}

	stats := Stats{Jobs: len(jobs), Workers: parallel, Wall: time.Since(start)}
	for i := range results {
		stats.EngineAllocs += results[i].Allocs
		if res := results[i].Res; res != nil {
			stats.NodeSteps += res.Steps
			stats.StepSlots += int64(res.Rounds) * int64(len(res.HaltRounds))
		}
	}
	if stats.StepSlots > 0 {
		stats.FrontierOccupancy = float64(stats.NodeSteps) / float64(stats.StepSlots)
	}
	if secs := stats.Wall.Seconds(); secs > 0 {
		stats.JobsPerSec = float64(stats.Jobs) / secs
	}
	return results, stats
}
