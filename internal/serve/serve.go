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
// bounded with 429 overflow, repeated requests hit a keyed response cache,
// and /healthz + /metrics expose the state an operator needs to drain or
// debug the process.
//
// Determinism contract: response bodies are pure functions of (spec, seed,
// format) — markdown contains only deterministic fields, and the JSON
// document is scrubbed of wall-clock and allocation noise — so they are
// byte-identical for any Parallel/EngineWorkers configuration, across
// restarts, and before/after cache eviction. CI's server smoke job diffs a
// served response against localbench output for the same spec.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
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
	DefaultCacheSize    = 64
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
	// CacheSize bounds the keyed response cache; 0 means DefaultCacheSize,
	// negative disables caching.
	CacheSize int
	// MaxInFlight caps concurrently executing requests; 0 means GOMAXPROCS.
	MaxInFlight int
	// QueueDepth caps requests waiting for an execution slot; beyond it the
	// server answers 429. 0 means DefaultQueueDepth, negative means no queue
	// (reject as soon as all slots are busy).
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
	cfg     Config
	corpus  *graph.Corpus
	cache   *respCache
	flights *flightGroup
	mux     *http.ServeMux
	sem     chan struct{}
	start   time.Time

	draining atomic.Bool
	inFlight atomic.Int64
	queued   atomic.Int64

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

// New returns a ready Server. The graph corpus and response cache live for
// the Server's lifetime and are shared across all requests.
func New(cfg Config) *Server {
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.CorpusLimit == 0 {
		cfg.CorpusLimit = DefaultCorpusLimit
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
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
		cfg:     cfg,
		corpus:  corpus,
		cache:   newRespCache(cfg.CacheSize),
		flights: newFlightGroup(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		start:   time.Now(),
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

// SetDraining flips the drain flag: /healthz answers 503 (so load balancers
// stop routing here) and new /run requests are refused, while requests
// already admitted run to completion under http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// ExecOptions configures one spec-set execution (the request → document path
// shared by the server and cmd/localbench -scenarios).
type ExecOptions struct {
	// Corpus memoizes graphs across calls; nil uses a private one.
	Corpus *graph.Corpus
	// SeedOffset shifts every spec seed (CLI -seed N maps to N-1).
	SeedOffset int64
	// Parallel / EngineWorkers configure the sweep (see sweep.Options).
	Parallel      int
	EngineWorkers int
	// Context cancels the batch mid-run; nil runs to completion.
	Context context.Context
	// OnSlot, when non-nil, receives each successfully completed slot's
	// deterministic outcome the moment it lands — the progress feed the
	// async job API streams over SSE. Slot indices are global grid slots
	// (identical for sharded and whole-grid execution). Callbacks arrive
	// from sweep workers concurrently and must be safe for concurrent use;
	// failed or canceled slots do not report.
	OnSlot func(out scenario.SlotOutcome)
}

// Outcome is a completed execution: the expanded batch, its results and
// stats, and the rendered deterministic markdown document.
type Outcome struct {
	Batch    *scenario.Batch
	Results  []sweep.Result
	Stats    sweep.Stats
	Markdown []byte
}

// Execute expands the specs, runs the batch and renders the markdown
// document. Expansion problems (the client's spec) are wrapped in ErrSpec;
// execution problems — including cancellation, which satisfies
// errors.Is(err, sweep.ErrCanceled) — are returned as-is.
func Execute(specs []*scenario.Spec, opts ExecOptions) (*Outcome, error) {
	// Expansion (graph generation included) is not cancellable; refuse work
	// for a context that is already dead rather than building for a caller
	// that is gone. Callers bound expansion size up front (see
	// Config.MaxNodes) — mid-expansion the context is not consulted.
	if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %w: batch not started", sweep.ErrCanceled, ctx.Err())
	}
	batch, err := scenario.Expand(specs, scenario.ExpandOptions{
		Corpus:     opts.Corpus,
		SeedOffset: opts.SeedOffset,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	results, stats := sweep.Run(batch.Jobs, sweep.Options{
		Parallel:      opts.Parallel,
		EngineWorkers: opts.EngineWorkers,
		Context:       opts.Context,
		OnResult:      slotReporter(opts.OnSlot, nil),
	})
	var buf bytes.Buffer
	if err := scenario.Render(&buf, batch, results); err != nil {
		return nil, err
	}
	return &Outcome{Batch: batch, Results: results, Stats: stats, Markdown: buf.Bytes()}, nil
}

// DeterministicDoc builds the benchfmt document for a served response with
// every non-deterministic field scrubbed: wall times, allocation counters
// and the server's own parallelism are zeroed, so the JSON body — like the
// markdown one — is a pure function of (spec, seed) and safe to cache and
// diff across worker counts. Node-steps and the instruction block are
// dropped too: a shard reports only rounds and messages per slot, so
// scenario.SlotsDoc cannot rebuild them and the two paths must agree byte
// for byte. CLI consumers that want timing and steps keep using
// localbench -json.
func DeterministicDoc(out *Outcome, seed int64) (*benchfmt.Doc, error) {
	doc, err := scenario.Doc(out.Batch, out.Results, out.Stats, seed, 0, 0)
	if err != nil {
		return nil, err
	}
	doc.GeneratedBy = "cmd/localserved"
	doc.Sweep = benchfmt.SweepStats{Jobs: out.Stats.Jobs}
	doc.Instr = nil
	for i := range doc.Results {
		doc.Results[i].WallNs = 0
		doc.Results[i].Allocs = 0
		doc.Results[i].Steps = 0
	}
	return doc, nil
}

// admit acquires an execution slot, waiting in the bounded queue when all
// slots are busy. It returns a release func on success, or the HTTP status
// to answer with (429 on queue overflow, 499 when the client gave up while
// queued).
func (s *Server) admit(ctx context.Context) (func(), int) {
	admitted := false
	select {
	case s.sem <- struct{}{}:
		admitted = true
	default:
	}
	if !admitted {
		if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			return nil, http.StatusTooManyRequests
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			return nil, statusClientClosedRequest
		}
	}
	s.inFlight.Add(1)
	return func() {
		s.inFlight.Add(-1)
		<-s.sem
	}, 0
}

// runRequest is one parsed POST /run, threaded from handleRun to the
// single-flight leader.
type runRequest struct {
	spec  *scenario.Spec
	shard *scenario.Shard // nil for a whole-grid request
	seed  int64
	// format is "md" or "json"; ignored when shard is non-nil (a shard
	// response is always the JSON shard document).
	format string
	// variant keys the response body within a flight and the cache: the
	// format, or "shard:i/n".
	variant string
	// baseKey is seed + canonical spec — the execution identity shared by
	// both formats of a whole-grid request.
	baseKey string
}

func (req *runRequest) cacheKey() string { return req.variant + "\x00" + req.baseKey }

// flightKey excludes the format for whole-grid requests — one execution
// renders both formats, so md and json requests coalesce — but includes the
// shard, so different shards of one spec execute concurrently.
func (req *runRequest) flightKey() string {
	if req.shard != nil {
		return req.cacheKey()
	}
	return req.baseKey
}

// handleRun is POST /run: body is one scenario.Spec (same strict JSON schema
// as a scenarios/ file), query parameters seed (default 1, shifts the spec's
// seed grid exactly like localbench -seed), format (md | json) and shard
// (i/n: execute only the grid slots with index ≡ i mod n and answer with
// the JSON shard document; mutually exclusive with format).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.draining.Load() {
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

	// The cache key is the canonical (re-marshalled) spec, not the raw body:
	// two clients formatting the same scenario differently share one entry.
	canonical, err := json.Marshal(spec)
	if err != nil {
		s.failed.Add(1)
		httpError(w, http.StatusInternalServerError, "canonicalizing spec: %v", err)
		return
	}
	req := &runRequest{
		spec:    spec,
		shard:   shard,
		seed:    seed,
		format:  format,
		variant: format,
		baseKey: strconv.FormatInt(seed, 10) + "\x00" + string(canonical),
	}
	if shard != nil {
		req.variant = "shard:" + shard.String()
	}

	for {
		if body, ct, ok := s.cache.get(req.cacheKey()); ok {
			s.cached.Add(1)
			s.ok.Add(1)
			writeResponse(w, ct, "hit", body)
			return
		}
		f, leader := s.flights.join(req.flightKey())
		if leader {
			s.lead(w, r, f, req)
			return
		}
		select {
		case <-f.done:
		case <-r.Context().Done():
			s.canceled.Add(1)
			httpError(w, statusClientClosedRequest, "canceled while coalesced")
			return
		}
		if body, ct, ok := f.lookup(req.variant); ok {
			s.coalesced.Add(1)
			s.ok.Add(1)
			writeResponse(w, ct, "coalesced", body)
			return
		}
		if f.replayStatus != 0 {
			// The leader hit a deterministic client error; re-running the
			// identical request would fail identically.
			s.coalesced.Add(1)
			s.badRequests.Add(1)
			httpError(w, f.replayStatus, "%s", f.replayMsg)
			return
		}
		// The leader's outcome was transient (rejected, canceled, failed):
		// loop — next round hits the cache, joins a newer flight, or leads.
	}
}

// lead executes a request as its flight's leader: admission, execution,
// rendering, cache fill, and publication of the outcome to coalesced
// waiters. finish runs on every path, so waiters never block on a leader
// that errored out.
func (s *Server) lead(w http.ResponseWriter, r *http.Request, f *flight, req *runRequest) {
	defer s.flights.finish(f)

	release, status := s.admit(r.Context())
	if status != 0 {
		if status == http.StatusTooManyRequests {
			s.rejected.Add(1)
			s.writeBusy(w)
		} else {
			s.canceled.Add(1)
			httpError(w, status, "not admitted")
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
	opts := ExecOptions{
		Corpus:        s.corpus,
		SeedOffset:    req.seed - 1,
		Parallel:      s.cfg.Parallel,
		EngineWorkers: s.cfg.EngineWorkers,
		Context:       ctx,
	}
	const mdCT = "text/markdown; charset=utf-8"
	const jsonCT = "application/json"

	if req.shard != nil {
		doc, stats, err := ExecuteShard(req.spec, *req.shard, opts)
		if err != nil {
			s.execError(w, f, err)
			return
		}
		s.recordStats(stats)
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			s.failed.Add(1)
			httpError(w, http.StatusInternalServerError, "encoding shard document: %v", err)
			return
		}
		data = append(data, '\n')
		s.cache.put(req.cacheKey(), data, jsonCT)
		f.publish(req.variant, jsonCT, data)
		s.ok.Add(1)
		writeResponse(w, jsonCT, "miss", data)
		return
	}

	out, err := Execute([]*scenario.Spec{req.spec}, opts)
	if err != nil {
		s.execError(w, f, err)
		return
	}
	s.recordStats(out.Stats)

	// One execution serves both formats: the JSON document derives from the
	// same Outcome the markdown does, so render both now — they feed the
	// cache's two format entries and any coalesced waiter that asked for the
	// other format — instead of re-running the whole batch later.
	mdBody := out.Markdown
	doc, err := DeterministicDoc(out, req.seed)
	if err != nil {
		s.failed.Add(1)
		httpError(w, http.StatusInternalServerError, "building document: %v", err)
		return
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		s.failed.Add(1)
		httpError(w, http.StatusInternalServerError, "encoding document: %v", err)
		return
	}
	jsonBody := append(data, '\n')
	s.cache.put("md\x00"+req.baseKey, mdBody, mdCT)
	s.cache.put("json\x00"+req.baseKey, jsonBody, jsonCT)
	f.publish("md", mdCT, mdBody)
	f.publish("json", jsonCT, jsonBody)
	s.ok.Add(1)
	if req.format == "md" {
		writeResponse(w, mdCT, "miss", mdBody)
	} else {
		writeResponse(w, jsonCT, "miss", jsonBody)
	}
}

// execError maps an Execute/ExecuteShard error to its HTTP response.
// Deterministic client errors (bad spec, max_rounds expiry) are additionally
// published to the flight so coalesced waiters replay them; transient
// outcomes (cancellation, timeout, server fault) are not — a waiter retries
// those itself.
func (s *Server) execError(w http.ResponseWriter, f *flight, err error) {
	switch {
	case errors.Is(err, ErrSpec):
		s.badRequests.Add(1)
		s.deterministicError(w, f, http.StatusBadRequest, "bad scenario: %v", err)
	case errors.Is(err, local.ErrMaxRounds):
		// The client's max_rounds (or the engine cap) expired before the
		// algorithm terminated: deterministic, client-induced, not a
		// server fault — do not page the operator for it.
		s.badRequests.Add(1)
		s.deterministicError(w, f, http.StatusUnprocessableEntity, "%v", err)
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

func (s *Server) deterministicError(w http.ResponseWriter, f *flight, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	f.replayStatus = status
	f.replayMsg = msg
	httpError(w, status, "%s", msg)
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
	if s.draining.Load() {
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

	RequestsTotal   uint64 `json:"requests_total"`
	ResponsesOK     uint64 `json:"responses_ok"`
	ResponsesCached uint64 `json:"responses_cached"`
	// ResponsesCoalesced counts requests answered from another in-flight
	// identical request's execution (single-flight), without running the
	// batch or hitting the cache.
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
	m.Draining = s.draining.Load()
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
	ch, cm, ce, cl := s.cache.stats()
	m.Cache.Hits, m.Cache.Misses, m.Cache.Entries, m.Cache.Limit = ch, cm, ce, cl
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

// TerminalError reports whether an execution error is deterministic — the
// identical request would fail identically on any replica, any retry, any
// restart: a bad spec (ErrSpec) or a max_rounds expiry. Retry machinery
// (the fabric coordinator, the job manager's crash recovery) must not burn
// attempts on these; everything else is worth re-running.
func TerminalError(err error) bool {
	return errors.Is(err, ErrSpec) || errors.Is(err, local.ErrMaxRounds)
}

// ShardExecutor returns the shard-wise execution function the async job
// manager checkpoints around: one call runs one shard of one spec's grid on
// this server's corpus and sweep configuration, reports per-slot progress
// through onSlot, and returns the deterministic graph header and slot
// outcomes — exactly the fields a journal checkpoint persists. Executions
// feed the server's /metrics throughput counters like synchronous requests
// do.
func (s *Server) ShardExecutor() func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
	return func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		doc, stats, err := ExecuteShard(spec, shard, ExecOptions{
			Corpus:        s.corpus,
			SeedOffset:    seed - 1,
			Parallel:      s.cfg.Parallel,
			EngineWorkers: s.cfg.EngineWorkers,
			Context:       ctx,
			OnSlot:        onSlot,
		})
		s.recordStats(stats)
		if err != nil {
			return scenario.GraphInfo{}, nil, err
		}
		return doc.Graph, doc.Slots, nil
	}
}
