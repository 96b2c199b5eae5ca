// Command localserved is the long-lived simulation service over the
// scenario/sweep stack (see internal/serve and DESIGN.md §2.8): clients POST
// one declarative scenario spec — the same strict JSON schema as a
// scenarios/ file — and receive the deterministic benchfmt/markdown
// document, byte-identical to cmd/localbench -scenarios output for the same
// spec at any parallelism.
//
// Every simulation batch — a whole-grid /run, a ?shard= request, a job
// shard — runs through one executor under -max-inflight execution slots. A
// /run that finds them busy waits in the -queue or gets 429; a job shard
// waits without a bound, and the job manager runs one worker per slot.
//
// Usage:
//
//	localserved [-addr host:port] [-parallel N] [-workers N]
//	            [-corpus-limit N] [-corpus-dir dir] [-corpus-mem BYTES]
//	            [-max-inflight N] [-queue N]
//	            [-timeout D] [-drain-timeout D] [-fault exit-after=N]
//	            [-spool dir] [-job-shards N] [-job-rate F]
//	            [-job-burst N] [-job-max-per-client N]
//	            [-fault exit-after-shard=N]
//
// Endpoints:
//
//	POST /run?seed=N&format=md|json   execute one scenario spec
//	GET  /healthz                     200 serving / 503 draining
//	GET  /metrics                     JSON counters (jobs/sec, engine
//	                                  allocs, corpus + cache stats, gauges)
//
// With -spool the durable async job API (internal/job, DESIGN.md §2.10) is
// mounted as well:
//
//	POST   /jobs?seed=N               submit a spec; 202 + job ID at once
//	GET    /jobs                      list jobs + job-manager metrics
//	GET    /jobs/{id}                 one job's status
//	GET    /jobs/{id}/events          SSE per-slot/per-shard progress stream
//	GET    /jobs/{id}/result?format=  stored document once done (md | json)
//	DELETE /jobs/{id}                 cancel
//
// Jobs are journaled to the spool before they are acknowledged and
// checkpointed at shard boundaries, so killing the process — even with
// SIGKILL — loses at most the shard in flight: on restart with the same
// -spool the journal replays, unfinished jobs resume from their last
// checkpoint, and the recovered documents are byte-identical to an
// uninterrupted run (CI's job-durability gate asserts exactly this).
//
// With -corpus-dir the graph corpus is backed by a content-addressed on-disk
// store of built CSR images (DESIGN.md §2.11): a replica fleet sharing the
// directory builds each (family, params, seed) graph once — every other
// replica mmaps the image instead of regenerating — and a restarted process
// warm-starts from disk. -corpus-mem bounds the corpus's in-heap graph
// bytes; with a store attached, evicted graphs reload from disk, so a small
// budget serves graphs far larger than itself. /metrics gains disk-tier
// counters (disk hits/misses, images written, bytes mapped). Documents are
// byte-identical whether a graph came from memory, disk, or fresh
// generation.
//
// On SIGTERM/SIGINT the server drains gracefully: /healthz flips to 503, new
// runs and submissions are refused, running jobs checkpoint at their next
// shard boundary (a job shard still waiting for a slot gives up and stays
// queued), open SSE streams flush a terminal drained event, requests
// already admitted finish (up to -drain-timeout), then the process exits 0.
// CI's server smoke job exercises exactly this lifecycle.
//
// -fault is the chaos-testing escape hatch: exit-after=N dies (exit 3, no
// response) the moment the Nth /run request arrives, simulating a replica
// crash mid-sweep at a deterministic point (CI's fabric-chaos job);
// exit-after-shard=N dies the moment the job subsystem journals its Nth
// shard checkpoint, simulating a crash mid-execution at a deterministic
// resume boundary (CI's job-durability gate).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/unilocal/unilocal/internal/cliutil"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/job"
	"github.com/unilocal/unilocal/internal/serve"
)

var (
	flagAddr        = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one)")
	flagParallel    = flag.Int("parallel", 0, "simulations in flight per request (0 = GOMAXPROCS); responses are byte-identical for any value")
	flagWorkers     = flag.Int("workers", 0, "engine worker count per simulation (0 = auto)")
	flagCorpus      = flag.Int("corpus-limit", serve.DefaultCorpusLimit, "max cached graphs, LRU-evicted (<0 = unbounded)")
	flagCorpusDir   = flag.String("corpus-dir", "", "content-addressed CSR image store directory; replicas sharing it build each graph once and restarts warm-start from disk")
	flagCorpusMem   = flag.Int64("corpus-mem", 0, "max estimated in-heap graph bytes in the corpus, LRU-evicted (0 = unbounded); with -corpus-dir, evicted graphs reload from disk")
	flagInFlight    = flag.Int("max-inflight", 0, "execution slots: max concurrently executing /run requests and job shards together (0 = GOMAXPROCS)")
	flagQueue       = flag.Int("queue", serve.DefaultQueueDepth, "max requests waiting for a slot before 429 (<0 = none)")
	flagTimeout     = flag.Duration("timeout", 0, "per-request execution deadline (0 = none)")
	flagDrain       = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	flagMaxBodySize = flag.Int64("max-body", serve.DefaultMaxBodyBytes, "max request body bytes")
	flagMaxNodes    = flag.Int("max-nodes", serve.DefaultMaxNodes, "max estimated graph nodes per request (<0 = unbounded)")
	flagMaxEdges    = flag.Int("max-edges", serve.DefaultMaxEdges, "max estimated graph edges per request (<0 = unbounded)")
	flagMaxJobs     = flag.Int("max-jobs", serve.DefaultMaxJobs, "max expanded jobs per request (<0 = unbounded)")
	flagFault       = flag.String("fault", "", "chaos-test fault mode: exit-after=N crashes the process (exit 3) on the Nth /run request, before responding; exit-after-shard=N crashes on the Nth journaled job shard checkpoint")

	flagSpool        = flag.String("spool", "", "job spool directory; enables the durable async job API at /jobs")
	flagJobShards    = flag.Int("job-shards", 0, "shard checkpoints per job — the crash-resume granularity (0 = default, <0 = one)")
	flagJobRate      = flag.Float64("job-rate", 0, "per-client job submissions per second (0 = default, <0 = unlimited)")
	flagJobBurst     = flag.Int("job-burst", 0, "per-client submission burst size (0 = default)")
	flagJobPerClient = flag.Int("job-max-per-client", 0, "max queued+running jobs per client (0 = default, <0 = unbounded)")
)

func main() {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, *flagAddr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "localserved:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled, then drains. When ready is non-nil the
// bound address is sent on it once the listener is up (tests bind port 0).
func run(ctx context.Context, addr string, ready chan<- string) error {
	var store *graph.Store
	if *flagCorpusDir != "" {
		var err error
		store, err = graph.OpenStore(*flagCorpusDir)
		if err != nil {
			return fmt.Errorf("opening corpus store: %w", err)
		}
		fmt.Fprintf(os.Stderr, "localserved: corpus store at %s\n", *flagCorpusDir)
	}
	s := serve.New(serve.Config{
		Parallel:       *flagParallel,
		EngineWorkers:  *flagWorkers,
		CorpusLimit:    *flagCorpus,
		CorpusStore:    store,
		CorpusMemBytes: *flagCorpusMem,
		MaxInFlight:    *flagInFlight,
		QueueDepth:     *flagQueue,
		Timeout:        *flagTimeout,
		MaxBodyBytes:   *flagMaxBodySize,
		MaxNodes:       *flagMaxNodes,
		MaxEdges:       *flagMaxEdges,
		MaxJobs:        *flagMaxJobs,
	})
	fault, shardFault, err := splitFault(*flagFault)
	if err != nil {
		return err
	}

	var base http.Handler = s
	var jobs *job.Manager
	if *flagSpool != "" {
		jobs, err = job.New(job.Config{
			Dir:          *flagSpool,
			Exec:         s.ShardExecutor(),
			Terminal:     serve.TerminalError,
			CheckSpec:    s.CheckSpec,
			Workers:      s.MaxInFlight(),
			ShardsPerJob: *flagJobShards,
			Rate:         *flagJobRate,
			Burst:        *flagJobBurst,
			MaxPerClient: *flagJobPerClient,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "localserved: "+format+"\n", args...)
			},
			CrashAfterShards: shardFault,
			Crash: func() {
				crash(fmt.Sprintf("exit-after-shard=%d tripped", shardFault))
			},
		})
		if err != nil {
			return fmt.Errorf("opening spool: %w", err)
		}
		api := job.NewAPI(jobs, s.MaxBodyBytes(), s.Draining)
		mux := http.NewServeMux()
		mux.Handle("/jobs", api)
		mux.Handle("/jobs/", api)
		mux.Handle("/", s)
		base = mux
		fmt.Fprintf(os.Stderr, "localserved: job spool at %s\n", *flagSpool)
	} else if shardFault > 0 {
		return errors.New("-fault exit-after-shard requires -spool")
	}
	handler, err := faultWrap(fault, base)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "localserved: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{Handler: handler}
	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Drain: stop advertising health, refuse new runs and submissions,
		// release job shards waiting for a slot, checkpoint running jobs at
		// their next shard boundary and flush
		// drained events to open SSE streams, then let admitted requests
		// finish within the grace period. The job drain runs first — its
		// drained events are what lets Shutdown's wait for open event
		// streams terminate.
		s.StartDrain()
		fmt.Fprintln(os.Stderr, "localserved: draining")
		drainCtx, cancel := context.WithTimeout(context.Background(), *flagDrain)
		defer cancel()
		if jobs != nil {
			if err := jobs.Drain(drainCtx); err != nil {
				fmt.Fprintf(os.Stderr, "localserved: job drain: %v\n", err)
			}
		}
		shutdownDone <- httpSrv.Shutdown(drainCtx)
	}()

	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if ctx.Err() == nil {
		// Serve returned without a drain being requested.
		return errors.New("listener closed unexpectedly")
	}
	if err := <-shutdownDone; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "localserved: drained")
	return nil
}

// crash is how a tripped -fault terminates the process; a variable so tests
// can observe the trip without dying.
var crash = func(reason string) {
	fmt.Fprintf(os.Stderr, "localserved: fault injected: %s\n", reason)
	os.Exit(3)
}

// splitFault separates the -fault value into the HTTP request-count mode
// (handled by faultWrap) and the job shard-checkpoint mode (handled by the
// job manager's crash hook). The two modes are mutually exclusive — one
// -fault flag, one fault.
func splitFault(mode string) (httpMode string, shardFault int, err error) {
	val, ok := strings.CutPrefix(mode, "exit-after-shard=")
	if !ok {
		return mode, 0, nil
	}
	n, err := strconv.Atoi(val)
	if err != nil {
		return "", 0, fmt.Errorf("-fault %q: %w", mode, err)
	}
	if err := cliutil.Positive("-fault exit-after-shard", n); err != nil {
		return "", 0, err
	}
	return "", n, nil
}

// faultWrap applies the -fault chaos mode to the server handler. The only
// mode, exit-after=N, kills the process the moment the Nth /run request
// arrives — before any response bytes — so the client sees the connection
// die mid-request, exactly what a crashed replica looks like to the fabric
// coordinator. CI's fabric-chaos job uses it to kill a replica mid-sweep at
// a deterministic point instead of racing a signal against the sweep.
func faultWrap(mode string, inner http.Handler) (http.Handler, error) {
	if mode == "" {
		return inner, nil
	}
	val, ok := strings.CutPrefix(mode, "exit-after=")
	if !ok {
		return nil, fmt.Errorf("-fault %q: unknown mode (want exit-after=N)", mode)
	}
	n, err := strconv.Atoi(val)
	if err != nil {
		return nil, fmt.Errorf("-fault %q: %w", mode, err)
	}
	if err := cliutil.Positive("-fault exit-after", n); err != nil {
		return nil, err
	}
	var runs atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" && runs.Add(1) == int64(n) {
			crash(fmt.Sprintf("exit-after=%d tripped", n))
			return // only reached when tests stub out crash
		}
		inner.ServeHTTP(w, r)
	}), nil
}
