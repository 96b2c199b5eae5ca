// Package serve is the long-lived serving layer over the scenario/sweep
// stack: a request names one scenario — graph family, identity regime,
// algorithm from the registry — and the server expands it, executes it on
// the pooled sweep scheduler and returns the deterministic document, exactly
// the contract of cmd/localbench -scenarios. This is the paper's workload
// shape as a service: many independent clients, each describing only its own
// instance, none relying on shared global knowledge (PAPER.md; DESIGN.md
// §2.8).
//
// Everything a one-shot CLI tolerates and a long-lived process cannot is
// handled here: the graph corpus is bounded (LRU eviction, so the server
// does not retain every family ever requested), request contexts thread all
// the way into the engine's round loop (a client disconnect or server
// timeout stops a batch instead of running it to completion), admission is
// bounded with 429 overflow, and /healthz + /metrics expose the state an
// operator needs to drain or debug the process.
//
// One executor, one builder, one admission: every simulation batch — a
// whole-grid /run (shard 0/1), a ?shard= request, a job shard — is an
// ExecuteShard call holding one of MaxInFlight execution slots, and a whole
// grid's documents come from scenario.Documents, as the job manager's do.
//
// Request lifecycle: parse → work-bound check → canonicalize → table lookup
// → admission → execute → build → settle. The execution table is keyed by
// execution identity (seed + canonical spec, plus the shard for a shard
// request). A lookup finds a settled execution (answered from memory), a
// pending one (the request waits for its leader), or nothing (the request
// leads). The leader settles its execution once, with both formats or the
// shard document, or with a deterministic 400/422 that later requests
// replay. Settled executions stay in one LRU of 64; transient outcomes
// (429, 499, 504, 5xx) leave the table, so the next request leads.
//
// Determinism contract: response bodies are pure functions of (spec, seed,
// format) — markdown contains only deterministic fields, and the JSON
// document is scrubbed of wall-clock and allocation noise — so they are
// byte-identical for any Parallel/EngineWorkers configuration, across
// restarts, and before/after eviction from the table. CI's server smoke job
// diffs a served response against localbench output for the same spec.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unilocal/unilocal/internal/benchfmt"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/sweep"
)

// Defaults for Config zero values.
const (
	DefaultCorpusLimit  = 256
	DefaultQueueDepth   = 64
	DefaultMaxBodyBytes = 1 << 20
	DefaultMaxNodes     = 1 << 20
	DefaultMaxEdges     = 1 << 23
	DefaultMaxJobs      = 4096
)

// statusClientClosedRequest reports a request whose client disconnected
// mid-execution (nginx's non-standard 499; the write usually goes nowhere,
// but the code keeps logs and metrics honest).
const statusClientClosedRequest = 499

// ErrSpec wraps every request problem that is the client's fault — a spec
// that fails validation or expansion — so the handler can map it to 400
// without string-matching.
var ErrSpec = errors.New("serve: invalid scenario request")

// Config configures a Server. The zero value selects defaults.
type Config struct {
	// Parallel is the sweep parallelism per request; 0 means GOMAXPROCS.
	Parallel int
	// EngineWorkers pins the per-simulation engine worker count; 0 = auto.
	// Only perfbench sets it (ROADMAP item 11).
	EngineWorkers int
	// CorpusLimit bounds the shared graph corpus (entries, LRU-evicted);
	// 0 means DefaultCorpusLimit, negative means unbounded.
	CorpusLimit int
	// CorpusStore, when non-nil, is the content-addressed on-disk CSR image
	// tier backing the corpus (graph.OpenStore): misses load previously
	// built graphs by mmap instead of regenerating, and fresh builds are
	// persisted for other replicas sharing the directory. Documents are
	// byte-identical with or without a store.
	CorpusStore *graph.Store
	// CorpusMemBytes bounds the corpus's estimated in-heap graph bytes
	// (LRU-evicted like the entry bound); 0 means unbounded. With a store
	// attached, evicted graphs reload from disk, so a small budget plus a
	// warm store serves graphs far larger than the budget.
	CorpusMemBytes int64
	// MaxInFlight caps concurrently executing simulation batches — /run
	// requests and job shards alike; 0 means GOMAXPROCS.
	MaxInFlight int
	// QueueDepth caps /run requests waiting for an execution slot; beyond it
	// the server answers 429. 0 means DefaultQueueDepth, negative means no
	// queue (reject as soon as all slots are busy). Job shards wait without
	// a bound: their jobs already hold a place in the job queue.
	QueueDepth int
	// Timeout caps one request's execution; 0 means no server-side deadline
	// (the client's disconnect still cancels).
	Timeout time.Duration
	// MaxBodyBytes caps the request body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxNodes / MaxEdges / MaxJobs bound the work a single request may
	// commission (graph size estimated by the family table, job count =
	// seeds × repeats × algorithms); beyond them the request is refused
	// with 400 before expansion ever builds anything. Graph construction
	// itself is not cancellable, so these bounds — not the request context
	// — are what keeps one client from pinning an execution slot with
	// arbitrarily large work. 0 means the defaults, negative unbounded.
	MaxNodes int
	MaxEdges int
	MaxJobs  int
}

// Server is the HTTP serving layer. Create with New; it implements
// http.Handler (POST /run, GET /healthz, GET /metrics).
type Server struct {
	cfg    Config
	corpus *graph.Corpus
	table  *execTable
	mux    *http.ServeMux
	sem    chan struct{}
	start  time.Time

	drain     chan struct{} // closed by StartDrain
	drainOnce sync.Once
	inFlight  atomic.Int64
	queued    atomic.Int64

	requests     atomic.Uint64
	ok           atomic.Uint64
	cached       atomic.Uint64
	coalesced    atomic.Uint64
	rejected     atomic.Uint64
	badRequests  atomic.Uint64
	canceled     atomic.Uint64
	failed       atomic.Uint64
	jobs         atomic.Uint64
	sweepWallNs  atomic.Uint64
	engineAllocs atomic.Uint64
	nodeSteps    atomic.Uint64
	stepSlots    atomic.Uint64
}

// New returns a ready Server. The graph corpus and execution table live for
// the Server's lifetime and are shared across all requests.
func New(cfg Config) *Server {
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.CorpusLimit == 0 {
		cfg.CorpusLimit = DefaultCorpusLimit
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = DefaultMaxNodes
	}
	if cfg.MaxEdges == 0 {
		cfg.MaxEdges = DefaultMaxEdges
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	corpusLimit := cfg.CorpusLimit
	if corpusLimit < 0 {
		corpusLimit = 0 // unbounded
	}
	corpus := graph.NewBoundedCorpus(corpusLimit)
	if cfg.CorpusStore != nil {
		corpus.AttachStore(cfg.CorpusStore)
	}
	if cfg.CorpusMemBytes > 0 {
		corpus.SetMemLimit(cfg.CorpusMemBytes)
	}
	s := &Server{
		cfg:    cfg,
		corpus: corpus,
		table:  newExecTable(),
		sem:    make(chan struct{}, cfg.MaxInFlight),
		start:  time.Now(),
		drain:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain puts the server into drain mode for good: /healthz answers 503
// (so load balancers stop routing here), new /run requests are refused and
// job shards still waiting for an execution slot give up, while requests
// already admitted or queued run to completion under http.Server.Shutdown.
func (s *Server) StartDrain() { s.drainOnce.Do(func() { close(s.drain) }) }

// Draining reports whether the server is draining.
func (s *Server) Draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// ExecOptions configures one ExecuteShard call: every localserved front,
// the fabric's in-process fallback and cmd/localbench -scenarios.
type ExecOptions struct {
	// Corpus memoizes graphs across calls; nil uses a private one.
	Corpus *graph.Corpus
	// SeedOffset shifts every spec seed (CLI -seed N maps to N-1).
	SeedOffset int64
	// Parallel / EngineWorkers configure the sweep (see sweep.Options);
	// only Config.EngineWorkers sets the latter (ROADMAP item 11).
	Parallel      int
	EngineWorkers int
	// Context cancels the batch mid-run; nil runs to completion.
	Context context.Context
	// OnSlot, when non-nil, receives each successfully completed slot's
	// outcome, indexed in its spec's grid, the moment it lands — the
	// progress feed the async job API streams over SSE. Callbacks arrive
	// from sweep workers concurrently and must be safe for concurrent use;
	// failed or canceled slots do not report.
	OnSlot func(out scenario.SlotOutcome)
}

// Outcome is a completed one-batch execution: the expanded batch, its
// results and stats, and the rendered markdown document. Nothing in this
// module builds one; it remains only for perfbench's traced replay and
// goes with ROADMAP item 11.
type Outcome struct {
	Batch    *scenario.Batch
	Results  []sweep.Result
	Stats    sweep.Stats
	Markdown []byte
}

// DeterministicDoc builds the served JSON document of a one-spec Outcome
// (the body a whole-grid POST /run?format=json answers for that spec and
// seed) by handing its slot outcomes to scenario.SlotsDoc. It remains only
// for perfbench's traced replay and goes with ROADMAP item 11.
func DeterministicDoc(out *Outcome, seed int64) (*benchfmt.Doc, error) {
	slots := make([]scenario.SlotOutcome, len(out.Results))
	for k, r := range out.Results {
		if r.Err != nil {
			return nil, r.Err
		}
		slots[k] = scenario.SlotOutcome{Slot: k, Rounds: r.Res.Rounds, Messages: r.Res.Messages}
	}
	return scenario.SlotsDoc(out.Batch.Plans[0], scenario.InfoOf(out.Batch.Graphs[0]), slots, seed)
}

// Admission refusals: errBusy answers a /run leader 429, errDraining ends a
// job shard's wait for a slot.
var (
	errBusy     = errors.New("all execution slots busy and queue full")
	errDraining = errors.New("server draining")
)

// admit takes one of the MaxInFlight execution slots that every simulation
// batch in the process runs under and returns its release. A free slot is
// taken at once. Otherwise a /run leader (queued) waits in the bounded
// queue, refused with errBusy when it is full, and a job shard waits as
// long as it takes, but gives up with errDraining once the server drains,
// so the job manager's drain is never held up by a slot the shard has not
// got. Both give up when ctx ends.
func (s *Server) admit(ctx context.Context, queued bool) (func(), error) {
	select {
	case s.sem <- struct{}{}:
	default:
		drain := s.drain
		if queued {
			if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
				s.queued.Add(-1)
				return nil, errBusy
			}
			defer s.queued.Add(-1)
			drain = nil // a queued /run request is still served during a drain
		}
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-drain:
			return nil, errDraining
		}
	}
	s.inFlight.Add(1)
	return func() {
		s.inFlight.Add(-1)
		<-s.sem
	}, nil
}

// execOptions configures one of the server's executions.
func (s *Server) execOptions(ctx context.Context, seed int64, onSlot func(scenario.SlotOutcome)) ExecOptions {
	return ExecOptions{
		Corpus:        s.corpus,
		SeedOffset:    seed - 1,
		Parallel:      s.cfg.Parallel,
		EngineWorkers: s.cfg.EngineWorkers,
		Context:       ctx,
		OnSlot:        onSlot,
	}
}

// Response content types. One whole-grid execution renders both the
// markdown and the JSON document; a shard execution renders the JSON shard
// document.
const (
	mdCT   = "text/markdown; charset=utf-8"
	jsonCT = "application/json"
)

// handleRun is POST /run: body is one scenario.Spec (same strict JSON schema
// as a scenarios/ file), query parameters seed (default 1, shifts the spec's
// seed grid exactly like localbench -seed), format (md | json) and shard
// (i/n: execute only the grid slots with index ≡ i mod n and answer with
// the JSON shard document; mutually exclusive with format).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}

	seed := int64(1)
	if v := r.URL.Query().Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			s.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
		seed = n
	}
	var shard *scenario.Shard
	if v := r.URL.Query().Get("shard"); v != "" {
		sh, err := scenario.ParseShard(v)
		if err != nil {
			s.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, "bad shard %q: %v", v, err)
			return
		}
		shard = &sh
	}
	format := r.URL.Query().Get("format")
	if shard != nil {
		if format != "" {
			s.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, "format and shard are mutually exclusive (a shard response is always the JSON shard document)")
			return
		}
		format = "json"
	} else {
		if format == "" {
			format = "md"
		}
		if format != "md" && format != "json" {
			s.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, "bad format %q (md or json)", format)
			return
		}
	}

	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		s.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		s.badRequests.Add(1)
		httpError(w, http.StatusRequestEntityTooLarge, "body over %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		s.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "bad scenario: %v", err)
		return
	}
	if err := s.checkLimits(spec, shard); err != nil {
		s.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The execution key is the canonical (re-marshalled) spec, not the raw
	// body: two clients formatting the same scenario differently share one
	// execution. It excludes the format — one execution renders both — but
	// includes the shard, so different shards of one spec run concurrently.
	canonical, err := json.Marshal(spec)
	if err != nil {
		s.failed.Add(1)
		httpError(w, http.StatusInternalServerError, "canonicalizing spec: %v", err)
		return
	}
	key := strconv.FormatInt(seed, 10) + "\x00" + string(canonical)
	if shard != nil {
		key = "shard:" + shard.String() + "\x00" + key
	}

	e, how, err := s.table.acquire(r.Context(), key)
	if err != nil {
		s.canceled.Add(1)
		httpError(w, statusClientClosedRequest, "canceled while coalesced")
		return
	}
	if how == cacheMiss {
		s.lead(w, r, e, spec, shard, seed, format)
		return
	}
	s.respond(w, e, format, how)
}

// lead runs a request's execution as its leader: admission, execution,
// document building and the response. shard is nil for a whole-grid
// request; format is "json" for a shard request. It records a settled
// outcome on e — the documents or a deterministic client error — and finish
// runs on every path, so waiters never block on a leader that errored out.
func (s *Server) lead(w http.ResponseWriter, r *http.Request, e *execution, spec *scenario.Spec, shard *scenario.Shard, seed int64, format string) {
	defer s.table.finish(e)

	release, err := s.admit(r.Context(), true)
	if err != nil {
		if errors.Is(err, errBusy) {
			s.rejected.Add(1)
			s.writeBusy(w)
		} else {
			s.canceled.Add(1)
			httpError(w, statusClientClosedRequest, "not admitted")
		}
		return
	}
	defer release()

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	// A whole grid runs as its one shard 0/1, whose slots are the grid in
	// order.
	sh := scenario.Shard{Index: 0, Count: 1}
	if shard != nil {
		sh = *shard
	}
	docs, stats, err := ExecuteShard([]*scenario.Spec{spec}, sh, s.execOptions(ctx, seed, nil))
	if err != nil {
		s.execError(w, e, err)
		return
	}
	doc := docs[0]
	s.recordStats(stats)
	if shard != nil {
		e.json, err = json.MarshalIndent(doc, "", "  ")
		e.json = append(e.json, '\n')
	} else {
		// One execution serves both formats, so a later or coalesced request
		// for the other format is answered without re-running the grid.
		e.md, e.json, err = scenario.Documents(spec, seed, doc.Graph, doc.Slots)
	}
	if err != nil {
		s.failed.Add(1)
		httpError(w, http.StatusInternalServerError, "building documents: %v", err)
		return
	}
	e.status = http.StatusOK
	s.respond(w, e, format, cacheMiss)
}

// execError maps an ExecuteShard error to its HTTP response.
// Deterministic client errors (bad spec, max_rounds expiry) settle the
// execution, so identical requests replay them; transient outcomes
// (cancellation, timeout, server fault) leave it unsettled, and the next
// identical request runs again.
func (s *Server) execError(w http.ResponseWriter, e *execution, err error) {
	switch {
	case errors.Is(err, ErrSpec):
		e.status, e.msg = http.StatusBadRequest, fmt.Sprintf("bad scenario: %v", err)
		s.respond(w, e, "", cacheMiss)
	case errors.Is(err, local.ErrMaxRounds):
		// The client's max_rounds (or the engine cap) expired before the
		// algorithm terminated: deterministic, client-induced, not a
		// server fault — do not page the operator for it.
		e.status, e.msg = http.StatusUnprocessableEntity, err.Error()
		s.respond(w, e, "", cacheMiss)
	case errors.Is(err, sweep.ErrCanceled):
		s.canceled.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			httpError(w, http.StatusGatewayTimeout, "canceled: %v", err)
		} else {
			httpError(w, statusClientClosedRequest, "canceled: %v", err)
		}
	default:
		s.failed.Add(1)
		httpError(w, http.StatusInternalServerError, "run failed: %v", err)
	}
}

// respond answers a request from a settled execution, counted by how the
// request found it (see execTable.acquire).
func (s *Server) respond(w http.ResponseWriter, e *execution, format, how string) {
	switch how {
	case cacheHit:
		s.cached.Add(1)
	case cacheCoalesced:
		s.coalesced.Add(1)
	}
	if e.status != http.StatusOK {
		s.badRequests.Add(1)
		httpError(w, e.status, "%s", e.msg)
		return
	}
	s.ok.Add(1)
	if format == "md" {
		writeResponse(w, mdCT, how, e.md)
	} else {
		writeResponse(w, jsonCT, how, e.json)
	}
}

func (s *Server) recordStats(stats sweep.Stats) {
	s.jobs.Add(uint64(stats.Jobs))
	s.sweepWallNs.Add(uint64(stats.Wall.Nanoseconds()))
	s.engineAllocs.Add(stats.EngineAllocs)
	s.nodeSteps.Add(uint64(stats.NodeSteps))
	s.stepSlots.Add(uint64(stats.StepSlots))
}

// writeBusy answers an admission overflow with 429, a Retry-After hint and
// the admission gauges a remote backoff policy needs: a client seeing
// queued at queue_depth should back off harder than one that merely lost
// the race for the last free slot. The hint grows with queue pressure —
// one second per full in-flight set's worth of queued requests.
func (s *Server) writeBusy(w http.ResponseWriter) {
	inFlight := s.inFlight.Load()
	queued := s.queued.Load()
	retry := 1 + int(queued)/s.cfg.MaxInFlight
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.WriteHeader(http.StatusTooManyRequests)
	fmt.Fprintf(w, "{\"error\":\"localserved: not admitted: all execution slots busy and queue full\",\"in_flight\":%d,\"queued\":%d,\"max_in_flight\":%d,\"queue_depth\":%d,\"retry_after_seconds\":%d}\n",
		inFlight, queued, s.cfg.MaxInFlight, s.cfg.QueueDepth, retry)
}

// checkLimits refuses a spec that would commission more work than the
// server is configured to accept from one request: estimated graph size
// (via the family table) and expanded job count. Bounding here — before any
// expansion — is what keeps graph generation, which cannot be canceled
// mid-build, from pinning an execution slot indefinitely. A shard request
// is bounded by its own share of the grid, not the whole grid: a sweep too
// large for one request stays servable split across enough shards (the
// graph-size bounds still apply unsharded — every shard builds the graph).
func (s *Server) checkLimits(spec *scenario.Spec, shard *scenario.Shard) error {
	if n := spec.Graph.ApproxNodes(); s.cfg.MaxNodes > 0 && n > s.cfg.MaxNodes {
		return fmt.Errorf("graph %s: ~%d nodes exceeds the server's per-request limit of %d", spec.Graph, n, s.cfg.MaxNodes)
	}
	if e := spec.Graph.ApproxEdges(); s.cfg.MaxEdges > 0 && e > s.cfg.MaxEdges {
		return fmt.Errorf("graph %s: ~%d edges exceeds the server's per-request limit of %d", spec.Graph, e, s.cfg.MaxEdges)
	}
	jobs := spec.ApproxJobs()
	if shard != nil {
		share := shard.Size(jobs)
		if s.cfg.MaxJobs > 0 && share > s.cfg.MaxJobs {
			return fmt.Errorf("shard %s spans %d of the spec's %d jobs, over the server's per-request limit of %d", shard, share, jobs, s.cfg.MaxJobs)
		}
		return nil
	}
	if s.cfg.MaxJobs > 0 && jobs > s.cfg.MaxJobs {
		return fmt.Errorf("spec expands to %d jobs, over the server's per-request limit of %d", jobs, s.cfg.MaxJobs)
	}
	return nil
}

// handleHealthz is GET /healthz: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "{\"status\":\"draining\"}\n")
		return
	}
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// Metrics is the JSON body of GET /metrics.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	InFlight      int64   `json:"in_flight"`
	Queued        int64   `json:"queued"`

	RequestsTotal uint64 `json:"requests_total"`
	ResponsesOK   uint64 `json:"responses_ok"`
	// ResponsesCached counts requests answered from a settled execution in
	// the table; ResponsesCoalesced those that waited on a pending one.
	// Both include replayed deterministic errors.
	ResponsesCached    uint64 `json:"responses_cached"`
	ResponsesCoalesced uint64 `json:"responses_coalesced"`
	Rejected           uint64 `json:"rejected"`
	BadRequests        uint64 `json:"bad_requests"`
	Canceled           uint64 `json:"canceled"`
	Failed             uint64 `json:"failed"`

	// Jobs / JobsPerSec / EngineAllocs aggregate the sweep batches executed
	// since start; JobsPerSec is jobs over cumulative batch wall time (the
	// scheduler's throughput, not the server's request rate). NodeSteps is
	// the cumulative engine work in node-steps (Σ per-run live-frontier
	// sizes) and FrontierOccupancy is NodeSteps over the Rounds × n step
	// slots those runs spanned — the bitset data plane's payoff gauge: low
	// occupancy means the word-level frontier is skipping most of the graph
	// most rounds.
	Jobs              uint64  `json:"jobs"`
	JobsPerSec        float64 `json:"jobs_per_sec"`
	EngineAllocs      uint64  `json:"engine_allocs"`
	NodeSteps         uint64  `json:"node_steps"`
	FrontierOccupancy float64 `json:"frontier_occupancy"`

	Corpus struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Entries   int    `json:"entries"`
		Limit     int    `json:"limit"`
		MemBytes  int64  `json:"mem_bytes"`
		MemLimit  int64  `json:"mem_limit"`
		// Disk is present only when a CSR image store is attached.
		Disk *DiskMetrics `json:"disk,omitempty"`
	} `json:"corpus"`
	// Cache is the execution table: hits found a settled execution, misses
	// any other lookup; entries counts settled executions, at most limit.
	Cache struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int    `json:"entries"`
		Limit   int    `json:"limit"`
	} `json:"cache"`
}

// DiskMetrics is the /metrics view of the corpus's disk tier (the CSR image
// store): load hits and misses, images this process wrote, corrupt images
// rejected, and byte totals for writes and mmaps.
type DiskMetrics struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Written      uint64 `json:"written"`
	Corrupt      uint64 `json:"corrupt"`
	BytesWritten int64  `json:"bytes_written"`
	BytesMapped  int64  `json:"bytes_mapped"`
}

// Snapshot returns the current metrics.
func (s *Server) Snapshot() Metrics {
	var m Metrics
	m.UptimeSeconds = time.Since(s.start).Seconds()
	m.Draining = s.Draining()
	m.InFlight = s.inFlight.Load()
	m.Queued = s.queued.Load()
	m.RequestsTotal = s.requests.Load()
	m.ResponsesOK = s.ok.Load()
	m.ResponsesCached = s.cached.Load()
	m.ResponsesCoalesced = s.coalesced.Load()
	m.Rejected = s.rejected.Load()
	m.BadRequests = s.badRequests.Load()
	m.Canceled = s.canceled.Load()
	m.Failed = s.failed.Load()
	m.Jobs = s.jobs.Load()
	m.EngineAllocs = s.engineAllocs.Load()
	m.NodeSteps = s.nodeSteps.Load()
	if slots := s.stepSlots.Load(); slots > 0 {
		m.FrontierOccupancy = float64(m.NodeSteps) / float64(slots)
	}
	if wall := s.sweepWallNs.Load(); wall > 0 {
		m.JobsPerSec = float64(m.Jobs) / (float64(wall) / 1e9)
	}
	cs := s.corpus.Metrics()
	m.Corpus.Hits, m.Corpus.Misses, m.Corpus.Evictions = cs.Hits, cs.Misses, cs.Evictions
	m.Corpus.Entries, m.Corpus.Limit = cs.Entries, cs.Limit
	m.Corpus.MemBytes, m.Corpus.MemLimit = cs.MemBytes, cs.MemLimit
	if cs.DiskEnabled {
		m.Corpus.Disk = &DiskMetrics{
			Hits:         cs.Disk.Hits,
			Misses:       cs.Disk.Misses,
			Written:      cs.Disk.Written,
			Corrupt:      cs.Disk.Corrupt,
			BytesWritten: cs.Disk.BytesWritten,
			BytesMapped:  cs.Disk.BytesMapped,
		}
	}
	m.Cache.Hits, m.Cache.Misses, m.Cache.Entries = s.table.stats()
	m.Cache.Limit = tableSize
	return m
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	data, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

func writeResponse(w http.ResponseWriter, contentType, cache string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Localserved-Cache", cache)
	w.Write(body)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf("localserved: "+format, args...), status)
}

// CheckSpec applies the server's per-request work bounds (max nodes, edges,
// expanded jobs) to a whole-grid spec — the same admission gate handleRun
// runs — so the async job API refuses oversized work with the same errors
// and before expansion builds anything.
func (s *Server) CheckSpec(spec *scenario.Spec) error { return s.checkLimits(spec, nil) }

// MaxBodyBytes is the request body bound in force (Config.MaxBodyBytes after
// defaulting), for front ends mounted beside /run that take the same bodies.
func (s *Server) MaxBodyBytes() int64 { return s.cfg.MaxBodyBytes }

// MaxInFlight is the number of execution slots (Config.MaxInFlight after
// defaulting): the job manager runs one worker per slot.
func (s *Server) MaxInFlight() int { return s.cfg.MaxInFlight }

// TerminalError reports whether an execution error is deterministic — the
// identical request would fail identically on any replica, any retry, any
// restart: a bad spec (ErrSpec) or a max_rounds expiry. Retry machinery
// (the fabric coordinator, the job manager's crash recovery) must not burn
// attempts on these; everything else is worth re-running.
func TerminalError(err error) bool {
	return errors.Is(err, ErrSpec) || errors.Is(err, local.ErrMaxRounds)
}

// ShardExecutor returns the shard-wise execution function the async job
// manager checkpoints around: one call takes an execution slot — waiting
// for one without a bound, never refused with 429 — runs one shard of one
// spec's grid on this server's corpus and sweep configuration, reports
// per-slot progress through onSlot, and returns the deterministic graph
// header and slot outcomes — exactly the fields a journal checkpoint
// persists. A wait ended by ctx or by the server's drain returns an error
// wrapping sweep.ErrCanceled, so the manager requeues the job. Executions
// feed the server's /metrics counters like synchronous requests do.
func (s *Server) ShardExecutor() func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
	return func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		release, err := s.admit(ctx, false)
		if err != nil {
			return scenario.GraphInfo{}, nil, fmt.Errorf("%w: %w: no execution slot", sweep.ErrCanceled, err)
		}
		defer release()
		docs, stats, err := ExecuteShard([]*scenario.Spec{spec}, shard, s.execOptions(ctx, seed, onSlot))
		s.recordStats(stats)
		if err != nil {
			return scenario.GraphInfo{}, nil, err
		}
		return docs[0].Graph, docs[0].Slots, nil
	}
}
