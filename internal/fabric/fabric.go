// Package fabric is the fault-tolerant distributed sweep coordinator: it
// fans one scenario corpus out over a set of localserved replicas as shard
// requests, supervises the replicas through failures, and merges the shard
// documents into the exact byte sequence a single-process run
// (cmd/localbench -scenarios) prints: both assemble the slot outcomes
// through scenario.Table.Add.
//
// The determinism contract does the heavy lifting. Every shard document
// field is a pure function of (spec, seed) — the serve layer ships no
// outputs, no timing, nothing placement-dependent — so the coordinator is
// free to be non-deterministic about *where* and *how often* work runs:
// shards are retried on other replicas after failures and executed
// in-process when every replica is down, and none of it can change a byte
// of the merged document. Robustness machinery here is therefore purely
// additive:
//
//   - one flat per-attempt timeout: it assumes nothing about the shard's
//     size, so it only has to be longer than any healthy attempt;
//   - per-shard bounded retries with deterministic jittered exponential
//     backoff, so a dead fleet produces a bounded number of requests, never
//     a storm;
//   - a per-replica circuit breaker (closed → open after consecutive
//     failures → half-open after a /healthz probe succeeds), so a dead
//     replica costs probes, not request timeouts;
//   - graceful degradation: when no replica can take work, shards fall back
//     to in-process execution through the same serve.ExecuteShard code path
//     the replicas run.
//
// Deterministic client errors (HTTP 400/413/422: the spec itself is bad)
// abort the sweep immediately — retrying them elsewhere would fail
// identically. Everything else (transport errors, timeouts, 429, 5xx,
// corrupted or truncated documents) is retriable. See DESIGN.md §2.9.
package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
)

// ErrTerminal wraps replica answers that retrying cannot fix: the request
// itself is invalid (bad spec, over the replica's work bounds, max_rounds
// expiry). The sweep aborts with it instead of spending retries.
var ErrTerminal = errors.New("fabric: terminal replica error")

// ErrExhausted reports a shard that failed on every allowed attempt with
// fallback disabled.
var ErrExhausted = errors.New("fabric: attempts exhausted")

// Config configures a Coordinator. The zero value of every field selects a
// sensible default (see New); Endpoints is the only required field unless
// Fallback is set.
type Config struct {
	// Endpoints are the replica base URLs (e.g. http://127.0.0.1:8080).
	Endpoints []string
	// Shards is the shard count per spec; 0 means one per endpoint. The
	// count is clamped to each spec's job count so no empty shard ships.
	Shards int
	// Client issues the HTTP requests; nil means a plain http.Client.
	// Wrapping its Transport (see faultinject) is how tests inject faults.
	Client *http.Client
	// Seed is the sweep seed, identical to localbench -seed; 0 means 1.
	Seed int64

	// MaxAttempts bounds how many times one shard is tried against replicas
	// before falling back (or failing); 0 means 4.
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the exponential backoff between a shard's
	// attempts; 0 means 50ms / 2s. Jitter is deterministic in BackoffSeed,
	// so a replayed sweep issues the same request schedule.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BackoffSeed seeds the jitter; 0 means 1.
	BackoffSeed int64

	// Timeout bounds one attempt, from request to validated document; an
	// attempt that outlives it is retried like any other failure. 0 means
	// 60s.
	Timeout time.Duration

	// FailureThreshold opens a replica's circuit breaker after that many
	// consecutive failures; 0 means 3.
	FailureThreshold int
	// ProbeInterval is how long an open breaker waits before a /healthz
	// probe; 0 means 250ms.
	ProbeInterval time.Duration
	// Fallback executes a shard in-process (serve.ExecuteShard, the code
	// path the replicas themselves run) when its attempts are exhausted or
	// no replica can take work. With it set, a sweep completes — byte-
	// identically — even with every replica dead.
	Fallback bool
	// FallbackParallel is the sweep parallelism of in-process fallback
	// execution; 0 means GOMAXPROCS.
	FallbackParallel int
	// CorpusStore, when non-nil, backs the fallback corpus with the
	// content-addressed CSR image store — graphs the replica fleet already
	// built load from disk instead of regenerating when the coordinator has
	// to execute shards in-process.
	CorpusStore *graph.Store

	// Logf, when non-nil, receives one line per notable supervision event
	// (retry, breaker transition, fallback).
	Logf func(format string, args ...any)
}

// Stats counts what a sweep's supervision actually did.
type Stats struct {
	Tasks        int // shard tasks (spec × shard)
	Attempts     int // HTTP attempts issued
	Retries      int // failed attempts that were retried or fell back
	Fallbacks    int // tasks completed by in-process execution
	Probes       int // /healthz probes of open breakers
	BreakerOpens int // closed/half-open → open transitions
	// Replicas is each endpoint's supervision state at sweep end, in
	// Config.Endpoints order — what cmd/localsweepd -status prints.
	Replicas []ReplicaStatus
}

// ReplicaStatus is one replica's supervision state at sweep end: where its
// circuit breaker finished, how close it sits to opening, and what its
// attempts amounted to. Successes+Failures can undercount Attempts — an
// attempt canceled by the drain scores neither.
type ReplicaStatus struct {
	URL              string `json:"url"`
	Breaker          string `json:"breaker"` // closed | open | half-open
	ConsecutiveFails int    `json:"consecutive_fails"`
	Attempts         int    `json:"attempts"`
	Successes        int    `json:"successes"`
	Failures         int    `json:"failures"`
}

// Coordinator runs distributed sweeps. Create with New; Sweep may be called
// repeatedly and reuses the fallback graph corpus across calls.
type Coordinator struct {
	cfg    Config
	client *http.Client
	corpus *graph.Corpus
}

// New validates the configuration and fills defaults.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Endpoints) == 0 && !cfg.Fallback {
		return nil, errors.New("fabric: no endpoints and no fallback")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("fabric: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = len(cfg.Endpoints)
		if cfg.Shards == 0 {
			cfg.Shards = 1
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.BackoffSeed == 0 {
		cfg.BackoffSeed = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	corpus := graph.NewCorpus()
	if cfg.CorpusStore != nil {
		corpus.AttachStore(cfg.CorpusStore)
	}
	return &Coordinator{cfg: cfg, client: client, corpus: corpus}, nil
}

// Sweep shards the specs across the replicas, rides out failures, and
// returns the merged markdown document — byte-identical to what
// cmd/localbench -scenarios prints for the same specs and seed — plus the
// supervision statistics. A terminal replica error, a shard out of
// attempts without fallback, or context cancellation abort the sweep.
func (c *Coordinator) Sweep(ctx context.Context, specs []*scenario.Spec) ([]byte, Stats, error) {
	run, err := c.newRun(specs)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := run.loop(ctx); err != nil {
		return nil, run.stats, err
	}
	var tab scenario.Table
	for _, st := range run.states {
		if err := tab.Add(st.plan, st.info, st.slots); err != nil {
			return nil, run.stats, err
		}
	}
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		return nil, run.stats, err
	}
	return buf.Bytes(), run.stats, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
