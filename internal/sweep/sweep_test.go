package sweep_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/sweep"
)

// spreadAlgo is a message- and randomness-sensitive algorithm whose running
// time varies with rounds, so jobs of different sizes finish out of
// submission order and any cross-job state leakage (shared RunState, lane
// slots, RNG streams) changes the outputs.
func spreadAlgo(rounds int) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: fmt.Sprintf("spread-%d", rounds),
		NewNode: func(info local.Info) local.Node {
			return &spreadNode{info: info, rounds: rounds + int(info.Rand.Uint64()%5)}
		},
	}
}

type spreadNode struct {
	info   local.Info
	rounds int
	mix    uint64
}

func (n *spreadNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for _, m := range recv {
		if v, ok := m.(uint64); ok {
			n.mix ^= v + uint64(r)
		}
	}
	if r >= n.rounds {
		return nil, true
	}
	return local.Broadcast(n.info.Rand.Uint64(), n.info.Degree), false
}

func (n *spreadNode) Output() any { return n.mix }

// testJobs builds a batch mixing shapes, sizes, run lengths and seeds so a
// parallel schedule completes in a thoroughly shuffled order.
func testJobs(t testing.TB) []sweep.Job {
	t.Helper()
	gnp, err := graph.GNP(300, 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{gnp, graph.Path(400), graph.Star(150), graph.Complete(40)}
	var jobs []sweep.Job
	for i, g := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			rounds := 2 + (len(graphs)-i)*13 // earlier jobs run longer
			a := spreadAlgo(rounds)
			jobs = append(jobs, sweep.Job{
				Label: fmt.Sprintf("g%d/seed%d", i, seed),
				Graph: g,
				Algo:  func() local.Algorithm { return a },
				Seed:  seed,
			})
		}
	}
	return jobs
}

// TestSweepDeterministicOrdering is the scheduler's core invariant: for
// every parallelism level, results arrive in job order with deterministic
// fields identical to the sequential batch, even though completion order is
// shuffled (long jobs first). Run under -race in CI.
func TestSweepDeterministicOrdering(t *testing.T) {
	jobs := testJobs(t)
	ref, refStats := sweep.Run(jobs, sweep.Options{Parallel: 1})
	if err := ref.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if refStats.Jobs != len(jobs) || refStats.Workers != 1 {
		t.Fatalf("stats = %+v, want %d jobs on 1 worker", refStats, len(jobs))
	}
	for _, parallel := range []int{2, 4, 16} {
		res, stats := sweep.Run(jobs, sweep.Options{Parallel: parallel})
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		if want := min(parallel, len(jobs)); stats.Workers != want {
			t.Fatalf("parallel=%d: stats.Workers = %d, want %d", parallel, stats.Workers, want)
		}
		for i := range jobs {
			if !reflect.DeepEqual(res[i].Res, ref[i].Res) {
				t.Fatalf("parallel=%d: job %d (%s) diverges from sequential batch",
					parallel, i, jobs[i].Label)
			}
		}
	}
}

// TestSweepEngineWorkerIndependence pins that pinning the inner engine's
// worker count does not change deterministic results.
func TestSweepEngineWorkerIndependence(t *testing.T) {
	jobs := testJobs(t)[:6]
	ref, _ := sweep.Run(jobs, sweep.Options{Parallel: 1, EngineWorkers: 1})
	for _, ew := range []int{0, 2, 7} {
		res, _ := sweep.Run(jobs, sweep.Options{Parallel: 3, EngineWorkers: ew})
		for i := range jobs {
			if !reflect.DeepEqual(res[i].Res, ref[i].Res) {
				t.Fatalf("engineWorkers=%d: job %d diverges", ew, i)
			}
		}
	}
}

// TestSweepErrorIsolation checks that a failing job reports its error in its
// own slot and leaves every other job untouched.
func TestSweepErrorIsolation(t *testing.T) {
	jobs := testJobs(t)[:4]
	forever := local.AlgorithmFunc{
		AlgoName: "forever",
		NewNode:  func(local.Info) local.Node { return foreverNode{} },
	}
	bad := sweep.Job{
		Label:     "stuck",
		Graph:     graph.Star(16),
		Algo:      func() local.Algorithm { return forever },
		MaxRounds: 32,
	}
	jobs = append(jobs[:2:2], bad, jobs[2], jobs[3])
	res, _ := sweep.Run(jobs, sweep.Options{Parallel: 2})
	if !errors.Is(res[2].Err, local.ErrMaxRounds) {
		t.Fatalf("bad job error = %v, want ErrMaxRounds", res[2].Err)
	}
	if res[2].Res != nil {
		t.Fatal("failed job carries a Result")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if res[i].Err != nil || res[i].Res == nil {
			t.Fatalf("job %d polluted by failing neighbour: err=%v", i, res[i].Err)
		}
	}
	if err := res.FirstErr(); !errors.Is(err, local.ErrMaxRounds) {
		t.Fatalf("FirstErr = %v", err)
	}
}

type foreverNode struct{}

func (foreverNode) Round(int, []local.Message) ([]local.Message, bool) { return nil, false }
func (foreverNode) Output() any                                        { return nil }

// TestSweepMetrics sanity-checks the per-job and batch metrics: wall times
// are positive, rounds/messages mirror the engine Result, warm same-shape
// jobs report zero engine allocations, and the batch stats add up.
func TestSweepMetrics(t *testing.T) {
	g := graph.Path(256)
	a := spreadAlgo(6)
	var jobs []sweep.Job
	for seed := int64(0); seed < 5; seed++ {
		jobs = append(jobs, sweep.Job{
			Label: fmt.Sprintf("seed%d", seed),
			Graph: g,
			Algo:  func() local.Algorithm { return a },
			Seed:  seed,
		})
	}
	res, stats := sweep.Run(jobs, sweep.Options{Parallel: 1})
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var allocs uint64
	for i := range res {
		if res[i].Wall <= 0 {
			t.Fatalf("job %d: wall = %v", i, res[i].Wall)
		}
		if res[i].Res.Rounds <= 0 || res[i].Res.Messages <= 0 {
			t.Fatalf("job %d: empty result %+v", i, res[i].Res)
		}
		allocs += res[i].Allocs
	}
	// All five jobs share one shape on one worker: at most the first can be
	// cold (and even it may hit a warm pooled state from an earlier test).
	for i := 1; i < len(res); i++ {
		if res[i].Allocs != 0 {
			t.Errorf("warm job %d performed %d engine allocations", i, res[i].Allocs)
		}
	}
	if stats.EngineAllocs != allocs {
		t.Errorf("stats.EngineAllocs = %d, want %d", stats.EngineAllocs, allocs)
	}
	if stats.JobsPerSec <= 0 {
		t.Errorf("stats.JobsPerSec = %v", stats.JobsPerSec)
	}
	if stats.Wall <= 0 {
		t.Errorf("stats.Wall = %v", stats.Wall)
	}
}

// TestSweepEmptyBatch keeps the degenerate case total.
func TestSweepEmptyBatch(t *testing.T) {
	res, stats := sweep.Run(nil, sweep.Options{})
	if len(res) != 0 || stats.Jobs != 0 {
		t.Fatalf("empty batch: res=%v stats=%+v", res, stats)
	}
}
