// Command localsweepd is the distributed counterpart of
// cmd/localbench -scenarios: it shards the declarative scenario corpus
// across a fleet of localserved replicas through the fault-tolerant fabric
// coordinator (internal/fabric, DESIGN.md §2.9) and writes the merged
// markdown document to stdout — byte-identical to what localbench prints
// for the same corpus and seed in a single process, regardless of how many
// replicas answered, failed, were retried or fell back.
//
// Usage:
//
//	localsweepd -scenarios dir -endpoints url[,url...] [-exp name]
//	            [-seed N] [-shards N] [-max-attempts N]
//	            [-backoff D] [-max-backoff D] [-timeout D]
//	            [-fail-threshold N] [-probe-interval D] [-fallback=false]
//	            [-corpus-dir dir] [-quiet] [-status]
//
// Replica failures are survived, not reported as errors: a failed or
// timed-out shard attempt is retried on another replica with jittered
// exponential backoff, a replica that keeps failing is circuit-broken and
// probed via /healthz until it recovers, and with -fallback (the default)
// shards run in-process when no replica can take them — so the sweep
// completes even with every endpoint dead. Supervision activity is
// summarized on stderr; only the merged document goes to stdout. Exit is
// non-zero for terminal errors: an invalid corpus, a replica rejecting the
// request itself (the spec is bad everywhere), a shard out of attempts with
// -fallback=false, or interruption.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/unilocal/unilocal/internal/cliutil"
	"github.com/unilocal/unilocal/internal/fabric"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
)

var (
	flagScen      = flag.String("scenarios", "", "scenario corpus directory (required)")
	flagEndpoints = flag.String("endpoints", "", "comma-separated replica base URLs (e.g. http://127.0.0.1:8080,http://127.0.0.1:8081)")
	flagExp       = flag.String("exp", "all", "run only the scenario with this name")
	flagSeed      = flag.Int64("seed", 1, "sweep seed, identical to localbench -seed")
	flagShards    = flag.Int("shards", 0, "shards per scenario (0 = one per endpoint, clamped to the job count)")
	flagAttempts  = flag.Int("max-attempts", 0, "replica attempts per shard before fallback or failure (0 = default)")
	flagBackoff   = flag.Duration("backoff", 0, "base retry backoff, doubled per attempt with deterministic jitter (0 = default)")
	flagMaxBack   = flag.Duration("max-backoff", 0, "backoff ceiling (0 = default)")
	flagTimeout   = flag.Duration("timeout", 0, "per-attempt timeout (0 = default 60s)")
	flagThreshold = flag.Int("fail-threshold", 0, "consecutive failures that open a replica's circuit breaker (0 = default)")
	flagProbe     = flag.Duration("probe-interval", 0, "delay before an open breaker is probed via /healthz (0 = default)")
	flagFallback  = flag.Bool("fallback", true, "execute shards in-process when no replica can take them")
	flagCorpusDir = flag.String("corpus-dir", "", "content-addressed CSR image store directory backing in-process fallback execution (share it with the replicas' -corpus-dir)")
	flagQuiet     = flag.Bool("quiet", false, "suppress per-event supervision log lines on stderr")
	flagStatus    = flag.Bool("status", false, "print one per-replica supervision summary line on stderr at sweep end")
)

func main() {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := sweep(ctx, fromFlags(), os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "localsweepd:", err)
		os.Exit(1)
	}
}

// sweepConfig carries the parsed flags, so tests can drive sweep directly.
type sweepConfig struct {
	Scenarios string
	Endpoints string
	Exp       string
	Seed      int64
	Shards    int

	MaxAttempts   int
	Backoff       time.Duration
	MaxBackoff    time.Duration
	Timeout       time.Duration
	FailThreshold int
	ProbeInterval time.Duration
	Fallback      bool
	CorpusDir     string
	Quiet         bool
	Status        bool
}

func fromFlags() sweepConfig {
	return sweepConfig{
		Scenarios:     *flagScen,
		Endpoints:     *flagEndpoints,
		Exp:           *flagExp,
		Seed:          *flagSeed,
		Shards:        *flagShards,
		MaxAttempts:   *flagAttempts,
		Backoff:       *flagBackoff,
		MaxBackoff:    *flagMaxBack,
		Timeout:       *flagTimeout,
		FailThreshold: *flagThreshold,
		ProbeInterval: *flagProbe,
		Fallback:      *flagFallback,
		CorpusDir:     *flagCorpusDir,
		Quiet:         *flagQuiet,
		Status:        *flagStatus,
	}
}

// sweep validates the configuration, loads and filters the corpus, runs the
// distributed sweep and writes the merged document to stdout plus a
// one-line supervision summary to stderr.
func sweep(ctx context.Context, cfg sweepConfig, stdout, stderr io.Writer) error {
	if err := cliutil.Dir("-scenarios", cfg.Scenarios); err != nil {
		return err
	}
	endpoints, err := cliutil.Endpoints("-endpoints", cfg.Endpoints)
	if err != nil {
		return err
	}
	if err := cliutil.NonNegative("-shards", cfg.Shards); err != nil {
		return err
	}
	specs, err := scenario.LoadDir(cfg.Scenarios)
	if err != nil {
		return err
	}
	// -exp filters by scenario name, with localbench -scenarios semantics.
	if want := strings.ToLower(cfg.Exp); want != "all" {
		var keep []*scenario.Spec
		for _, s := range specs {
			if s.Name == want {
				keep = append(keep, s)
			}
		}
		if len(keep) == 0 {
			return fmt.Errorf("no scenario named %q in %s", want, cfg.Scenarios)
		}
		specs = keep
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "localsweepd: "+format+"\n", args...)
	}
	if cfg.Quiet {
		logf = nil
	}
	var store *graph.Store
	if cfg.CorpusDir != "" {
		store, err = graph.OpenStore(cfg.CorpusDir)
		if err != nil {
			return err
		}
	}
	c, err := fabric.New(fabric.Config{
		Endpoints:        endpoints,
		Shards:           cfg.Shards,
		Seed:             cfg.Seed,
		MaxAttempts:      cfg.MaxAttempts,
		BaseBackoff:      cfg.Backoff,
		MaxBackoff:       cfg.MaxBackoff,
		BackoffSeed:      cfg.Seed,
		Timeout:          cfg.Timeout,
		FailureThreshold: cfg.FailThreshold,
		ProbeInterval:    cfg.ProbeInterval,
		Fallback:         cfg.Fallback,
		CorpusStore:      store,
		Logf:             logf,
	})
	if err != nil {
		return err
	}
	out, stats, err := c.Sweep(ctx, specs)
	if err != nil {
		return err
	}
	if _, err := stdout.Write(out); err != nil {
		return err
	}
	// "0 hedges" is a constant: perfbench/corpus.go's fabricLine regex
	// still expects the field, so it stays until that parser drops it.
	fmt.Fprintf(stderr,
		"localsweepd: %d scenarios, %d shard tasks over %d replicas: %d attempts, %d retries, 0 hedges, %d fallbacks, %d probes, %d breaker opens\n",
		len(specs), stats.Tasks, len(endpoints), stats.Attempts, stats.Retries,
		stats.Fallbacks, stats.Probes, stats.BreakerOpens)
	if cfg.Status {
		writeStatus(stderr, stats)
	}
	return nil
}

// writeStatus prints the per-replica supervision summary -status asks for:
// each replica's breaker position, consecutive-failure count and attempt
// ledger, plus the sweep's retry count.
func writeStatus(stderr io.Writer, stats fabric.Stats) {
	fmt.Fprintf(stderr, "localsweepd: status: retries %d", stats.Retries)
	for _, rep := range stats.Replicas {
		fmt.Fprintf(stderr, " · %s breaker=%s fails=%d attempts=%d ok=%d err=%d",
			rep.URL, rep.Breaker, rep.ConsecutiveFails, rep.Attempts, rep.Successes, rep.Failures)
	}
	fmt.Fprintln(stderr)
}
