package sweep_test

// Cancellation semantics of the batch scheduler: a canceled batch must
// return partially-filled results where every incomplete slot carries an
// error wrapping sweep.ErrCanceled (and the context's own error) — never a
// zero-valued Result indistinguishable from a successful run. Run under
// -race in CI: cancellation races against the claim loop by construction.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/sweep"
)

// gateAlgo blocks its round loop until released, then halts; it lets a test
// hold a batch mid-flight at a deterministic point without sleeping.
func gateAlgo(gate <-chan struct{}, started *atomic.Int64) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "gate",
		NewNode: func(local.Info) local.Node {
			return &gateNode{gate: gate, started: started}
		},
	}
}

type gateNode struct {
	gate    <-chan struct{}
	started *atomic.Int64
	waited  bool
}

func (n *gateNode) Round(int, []local.Message) ([]local.Message, bool) {
	if !n.waited {
		n.waited = true
		if n.started != nil {
			n.started.Add(1)
		}
		<-n.gate
	}
	return nil, true
}

func (n *gateNode) Output() any { return true }

// TestSweepCanceledBeforeStart pins the all-sentinel case: a context that is
// already dead yields no zero slots and no real runs.
func TestSweepCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := testJobs(t)
	results, stats := sweep.Run(jobs, sweep.Options{Parallel: 4, Context: ctx})
	if stats.Jobs != len(jobs) {
		t.Fatalf("stats.Jobs = %d, want %d", stats.Jobs, len(jobs))
	}
	for i := range results {
		if results[i].Res != nil {
			t.Fatalf("job %d ran despite pre-canceled context", i)
		}
		if !errors.Is(results[i].Err, sweep.ErrCanceled) {
			t.Fatalf("job %d: err = %v, want ErrCanceled", i, results[i].Err)
		}
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want it to wrap context.Canceled", i, results[i].Err)
		}
	}
	if err := results.FirstErr(); !errors.Is(err, sweep.ErrCanceled) {
		t.Fatalf("FirstErr = %v, want ErrCanceled", err)
	}
}

// TestSweepCanceledMidBatch holds the first wave of jobs on a gate, cancels,
// and checks the three slot classes: completed results are kept, interrupted
// or unstarted slots all carry the sentinel, and no slot is zero-valued.
func TestSweepCanceledMidBatch(t *testing.T) {
	const parallel = 4
	gate := make(chan struct{})
	var started atomic.Int64
	blocking := gateAlgo(gate, &started)
	quick := spreadAlgo(2)

	// Jobs 0..3 complete before the gate jobs are claimed is impossible: the
	// first parallel claims are the gate jobs, which block; the quick jobs
	// behind them never start.
	var jobs []sweep.Job
	for i := 0; i < parallel; i++ {
		jobs = append(jobs, sweep.Job{
			Label: fmt.Sprintf("gate%d", i),
			Graph: graph.Path(8),
			Algo:  func() local.Algorithm { return blocking },
		})
	}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, sweep.Job{
			Label: fmt.Sprintf("quick%d", i),
			Graph: graph.Path(64),
			Algo:  func() local.Algorithm { return quick },
			Seed:  int64(i),
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var results []sweep.Result
	go func() {
		defer close(done)
		results, _ = sweep.Run(jobs, sweep.Options{Parallel: parallel, Context: ctx})
	}()
	// Wait until every worker is parked inside a gate job, then cancel and
	// release the gates so the held runs finish their (single) round.
	for started.Load() < parallel {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	close(gate)
	<-done

	completed := 0
	for i := range results {
		r := results[i]
		switch {
		case r.Res != nil && r.Err == nil:
			completed++
		case r.Err != nil:
			if !errors.Is(r.Err, sweep.ErrCanceled) {
				t.Fatalf("job %d (%s): err = %v, want ErrCanceled", i, jobs[i].Label, r.Err)
			}
		default:
			t.Fatalf("job %d (%s): zero-valued Result slot after cancellation", i, jobs[i].Label)
		}
	}
	// The gate jobs' nodes halt in their first round, so the held runs
	// complete once released; the quick jobs behind them must not have run.
	for i := parallel; i < len(jobs); i++ {
		if results[i].Err == nil {
			t.Fatalf("job %d (%s) completed after cancellation", i, jobs[i].Label)
		}
	}
	if completed == 0 {
		t.Fatal("no job completed; expected the gate jobs to finish after release")
	}
}

// TestSweepDeadlineStopsLongRuns checks that a deadline interrupts jobs
// mid-run (not only between jobs): a single never-halting job must come back
// with ErrCanceled wrapping DeadlineExceeded, not spin to MaxRounds.
func TestSweepDeadlineStopsLongRuns(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	forever := local.AlgorithmFunc{
		AlgoName: "forever",
		NewNode:  func(local.Info) local.Node { return foreverNode{} },
	}
	jobs := []sweep.Job{{
		Label: "stuck",
		Graph: graph.Star(16),
		Algo:  func() local.Algorithm { return forever },
	}}
	results, _ := sweep.Run(jobs, sweep.Options{Parallel: 1, Context: ctx})
	if !errors.Is(results[0].Err, sweep.ErrCanceled) || !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", results[0].Err)
	}
	if results[0].Res != nil {
		t.Fatal("interrupted job carries a Result")
	}
}

// TestSweepUnfiredContextByteIdentical pins that merely carrying a context
// does not perturb scheduling or results.
func TestSweepUnfiredContextByteIdentical(t *testing.T) {
	jobs := testJobs(t)
	ref, _ := sweep.Run(jobs, sweep.Options{Parallel: 1})
	got, _ := sweep.Run(jobs, sweep.Options{Parallel: 3, Context: context.Background()})
	if err := got.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if got[i].Res == nil || got[i].Res.Rounds != ref[i].Res.Rounds || got[i].Res.Messages != ref[i].Res.Messages {
			t.Fatalf("job %d diverges under an unfired context", i)
		}
	}
}
