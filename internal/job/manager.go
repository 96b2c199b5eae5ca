// Package job is the durable async half of the serving layer: submissions
// become crash-safe spooled jobs instead of held-open HTTP requests. A job's
// identity is the content address of its execution (seed + canonical spec),
// its lifecycle is an append-only fsync'd journal of state transitions, and
// its execution is checkpointed at shard boundaries — so a process crash
// loses at most the shard in flight, duplicate submissions coalesce onto one
// execution even across restarts, and the recovered result document is
// byte-identical to an uninterrupted run (the determinism contract of
// DESIGN.md §2.8, extended to §2.10's job lifecycle). The job table never
// evicts: terminal entries are kept for the life of the process.
//
// The package deliberately does not import the serve package: the executor
// is injected as a function (serve.Server.ShardExecutor matches it), which
// keeps job ↔ serve dependency-free in both directions and lets tests drive
// the manager with a synthetic executor that fails, stalls or crashes on
// cue.
package job

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/sweep"
)

// Job states, as reported by Status. Done, Failed and Canceled are terminal;
// a canceled job, or one that ran out of transient retries, is requeued by
// resubmitting it (its checkpoints survive), a deterministically failed one
// replays its error to resubmissions.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Defaults for Config zero values.
const (
	DefaultWorkers      = 2
	DefaultShardsPerJob = 4
	DefaultRate         = 4  // submissions per second per client
	DefaultBurst        = 8  // bucket size
	DefaultMaxPerClient = 16 // queued+running jobs per client
)

// ErrDraining refuses submissions while the manager drains for shutdown.
var ErrDraining = errors.New("job: manager draining")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("job: unknown job")

// ErrInvalid wraps every submission refusal the client caused — a spec that
// fails planning or the executor's work bounds — so the API can answer 400
// for those alone. Journal and canonicalization failures are the server's.
var ErrInvalid = errors.New("job: invalid submission")

// ExecFunc runs one shard of one spec's grid and returns the deterministic
// graph header and the shard's slot outcomes. serve.Server.ShardExecutor
// returns exactly this shape. Errors for which terminal(err) is true are
// journaled as permanent failures; everything else is retried.
type ExecFunc func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error)

// Config configures a Manager. Dir and Exec are required; the zero value of
// everything else selects defaults.
type Config struct {
	// Dir is the spool directory (journal + result store).
	Dir string
	// Hooks inject the spool's disk primitives (fault testing); zero = real.
	Hooks Hooks
	// Exec executes one shard; required.
	Exec ExecFunc
	// Terminal classifies an Exec error as deterministic (journal it, replay
	// it to duplicates) vs transient (retry). Nil treats every error as
	// terminal. serve.TerminalError is the production classifier.
	Terminal func(error) bool
	// CheckSpec refuses oversized specs at submission (serve.Server.CheckSpec
	// applies the server's admission bounds); nil accepts everything.
	CheckSpec func(*scenario.Spec) error
	// Workers is the number of concurrent job executions; 0 = DefaultWorkers.
	// cmd/localserved runs one per server execution slot, which every shard
	// execution waits for.
	Workers int
	// ShardsPerJob is the checkpoint granularity: each job's grid is split
	// into this many modulus shards, journaled one by one, and a crashed
	// execution resumes after its last journaled shard. Clamped to the grid
	// size. 0 = DefaultShardsPerJob, negative = 1 (checkpoint only at the
	// end).
	ShardsPerJob int
	// Rate / Burst shape the per-client submission token bucket; 0 selects
	// DefaultRate/DefaultBurst, negative Rate disables rate limiting.
	Rate  float64
	Burst int
	// MaxPerClient caps one client's queued+running jobs; 0 =
	// DefaultMaxPerClient, negative = unbounded.
	MaxPerClient int
	// Retries is how many times a transiently failed job is requeued before
	// it is journaled as failed; 0 = 2, negative = none.
	Retries int
	// Logf logs operational events; nil discards.
	Logf func(format string, args ...any)
	// Now is the clock (rate limiting, tests); nil = time.Now.
	Now func() time.Time

	// CrashAfterShards, when > 0, simulates a process crash for tests: after
	// that many shard checkpoints have been journaled (process-wide), the
	// manager goes dead — no further journal writes, workers abandon their
	// jobs mid-flight without journaling a thing — and Crash is called
	// (cmd/localserved maps its -fault exit-after-shard=N flag to an
	// os.Exit here; in-process tests use a no-op and then reopen the spool).
	CrashAfterShards int
	Crash            func()
}

// checkpoint is one journaled shard: its graph header and slot outcomes.
type checkpoint struct {
	info  scenario.GraphInfo
	slots []scenario.SlotOutcome
}

// entry is one job's in-memory state. Guarded by Manager.mu except where
// noted.
type entry struct {
	id        string
	seed      int64
	spec      *scenario.Spec
	canonical []byte
	client    string
	shards    int
	slots     int // grid size (plan.Jobs())
	state     string
	errMsg    string
	exhausted bool         // failed by running out of transient retries
	ckpts     []checkpoint // contiguous prefix: ckpts[i] is shard i
	retries   int
	cancel    context.CancelFunc // non-nil while running
	hub       *hub
	liveSlots atomic.Int64 // slots finished in the shard now in flight
}

func (e *entry) ckptSlots() int {
	n := 0
	for i := range e.ckpts {
		n += len(e.ckpts[i].slots)
	}
	return n
}

func (e *entry) slotsDone() int { return e.ckptSlots() + int(e.liveSlots.Load()) }

func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Status is one job's externally visible state.
type Status struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Spec       string `json:"spec"`
	Seed       int64  `json:"seed"`
	Shards     int    `json:"shards"`
	ShardsDone int    `json:"shards_done"`
	Slots      int    `json:"slots"`
	SlotsDone  int    `json:"slots_done"`
	Error      string `json:"error,omitempty"`
}

// Metrics is the manager's counter snapshot.
type Metrics struct {
	Jobs      int    `json:"jobs"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted uint64 `json:"submitted"`
	Coalesced uint64 `json:"coalesced"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// Resumed counts jobs requeued from the journal at startup; Checkpoints
	// counts shard records journaled since start.
	Resumed     uint64 `json:"resumed"`
	Checkpoints uint64 `json:"checkpoints"`
	RateLimited uint64 `json:"rate_limited"`
}

// Manager owns the spool, the job table and the worker pool. Create with
// New; it recovers journaled state before accepting new work.
type Manager struct {
	cfg   Config
	spool *Spool
	rl    *quotas

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*entry
	order    []string // submission order, for compaction and listing
	queue    []string
	active   map[string]int // client → queued+running jobs
	running  int
	draining bool
	dead     atomic.Bool // crash simulation fired: no more journal writes

	workers    sync.WaitGroup
	ckptCount  atomic.Int64
	submitted  atomic.Uint64
	coalescedN atomic.Uint64
	doneN      atomic.Uint64
	failedN    atomic.Uint64
	canceledN  atomic.Uint64
	resumedN   atomic.Uint64
	limitedN   atomic.Uint64
}

// New opens (or creates) the spool at cfg.Dir, replays the journal —
// requeueing unfinished jobs at their last checkpointed shard boundary —
// compacts it, and starts the worker pool.
func New(cfg Config) (*Manager, error) {
	if cfg.Exec == nil {
		return nil, errors.New("job: Config.Exec is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.ShardsPerJob == 0 {
		cfg.ShardsPerJob = DefaultShardsPerJob
	}
	if cfg.ShardsPerJob < 0 {
		cfg.ShardsPerJob = 1
	}
	if cfg.Rate == 0 {
		cfg.Rate = DefaultRate
	}
	if cfg.Burst <= 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.MaxPerClient == 0 {
		cfg.MaxPerClient = DefaultMaxPerClient
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Terminal == nil {
		cfg.Terminal = func(error) bool { return true }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}

	spool, recs, err := OpenSpool(cfg.Dir, cfg.Hooks)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:    cfg,
		spool:  spool,
		jobs:   make(map[string]*entry),
		active: make(map[string]int),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Rate > 0 {
		m.rl = newQuotas(cfg.Rate, cfg.Burst, cfg.Now)
	}
	if err := m.replay(recs); err != nil {
		spool.Close()
		return nil, err
	}
	if err := m.compactLocked(); err != nil {
		spool.Close()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m, nil
}

// replay folds the journal into the job table. Replay is the inverse of the
// append rules in execute/Submit/Cancel, so (journal → replay → compact) is
// idempotent.
func (m *Manager) replay(recs []*Record) error {
	for _, rec := range recs {
		switch rec.Op {
		case OpSubmit:
			if e, ok := m.jobs[rec.ID]; ok {
				// Resubmission after a terminal record requeues the job;
				// checkpoints survive (a canceled job resumes cheaply).
				if terminalState(e.state) {
					e.state = StateQueued
					e.errMsg = ""
					e.exhausted = false
				}
				continue
			}
			spec, err := scenario.Parse(rec.Spec)
			if err != nil {
				return fmt.Errorf("job %s: journaled spec: %w", rec.ID, err)
			}
			plan, err := scenario.PlanOf(spec, rec.Seed-1)
			if err != nil {
				return fmt.Errorf("job %s: journaled spec: %w", rec.ID, err)
			}
			m.jobs[rec.ID] = &entry{
				id:        rec.ID,
				seed:      rec.Seed,
				spec:      spec,
				canonical: append([]byte(nil), rec.Spec...),
				client:    rec.Client,
				shards:    rec.Shards,
				slots:     plan.Jobs(),
				state:     StateQueued,
				hub:       newHub(),
			}
			m.order = append(m.order, rec.ID)
		case OpShard:
			e, ok := m.jobs[rec.ID]
			if !ok || rec.Shard == nil || rec.Info == nil {
				continue
			}
			// Only a contiguous prefix of shards is a valid resume point;
			// anything else (a duplicate from a pre-compaction journal) is
			// discarded and re-executed, which determinism makes safe.
			if rec.Shard.Count == e.shards && rec.Shard.Index == len(e.ckpts) {
				e.ckpts = append(e.ckpts, checkpoint{info: *rec.Info, slots: rec.Slots})
			}
		case OpDone:
			if e, ok := m.jobs[rec.ID]; ok {
				e.state = StateDone
			}
		case OpFail:
			if e, ok := m.jobs[rec.ID]; ok {
				e.state = StateFailed
				e.errMsg = rec.Error
				e.exhausted = rec.Exhausted
			}
		case OpCancel:
			if e, ok := m.jobs[rec.ID]; ok {
				e.state = StateCanceled
			}
		}
	}
	// Requeue survivors. A job journaled done whose result files are missing
	// (crash between rename and the directory sync) re-executes from its
	// checkpoints instead of serving a 404 forever.
	for _, id := range m.order {
		e := m.jobs[id]
		if e.state == StateDone && !m.spool.HasResult(id) {
			m.cfg.Logf("job %s: journaled done but result files missing; requeueing", id)
			e.state = StateQueued
		}
		if e.state == StateQueued {
			m.queue = append(m.queue, id)
			m.active[e.client]++
			m.resumedN.Add(1)
			e.hub.publish(Event{Type: EventQueued, Shards: e.shards, ShardsDone: len(e.ckpts), Slots: e.slots, SlotsDone: e.ckptSlots()})
		}
		if terminalState(e.state) {
			// A subscriber to a finished job's stream still sees one
			// terminal event, exactly as a live completion would have sent.
			st := m.statusLocked(e)
			e.hub.publish(Event{Type: terminalEventType(e.state), Shards: st.Shards, ShardsDone: st.ShardsDone, Slots: st.Slots, SlotsDone: st.SlotsDone, Error: e.errMsg})
			e.hub.close()
		}
	}
	return nil
}

func terminalEventType(state string) string {
	switch state {
	case StateDone:
		return EventDone
	case StateFailed:
		return EventFailed
	default:
		return EventCanceled
	}
}

// liveRecords reconstructs the minimal journal representing current state:
// per job, its submit record, then its checkpoints if it can still run
// (unfinished, canceled or out of retries), then its terminal record. This
// is the spool's GC policy: a done or deterministically failed job compacts
// to two records regardless of how many shards it journaled.
func (m *Manager) liveRecords() []*Record {
	recs := make([]*Record, 0, len(m.order)*2)
	for _, id := range m.order {
		e := m.jobs[id]
		recs = append(recs, &Record{V: RecordVersion, Op: OpSubmit, ID: id, Seed: e.seed, Spec: e.canonical, Shards: e.shards, Client: e.client})
		if e.state != StateDone && (e.state != StateFailed || e.exhausted) {
			for i := range e.ckpts {
				recs = append(recs, m.ckptRecord(e, i))
			}
		}
		switch e.state {
		case StateDone:
			recs = append(recs, &Record{V: RecordVersion, Op: OpDone, ID: id})
		case StateFailed:
			recs = append(recs, &Record{V: RecordVersion, Op: OpFail, ID: id, Error: e.errMsg, Exhausted: e.exhausted})
		case StateCanceled:
			recs = append(recs, &Record{V: RecordVersion, Op: OpCancel, ID: id})
		}
	}
	return recs
}

func (m *Manager) ckptRecord(e *entry, i int) *Record {
	info := e.ckpts[i].info
	return &Record{
		V: RecordVersion, Op: OpShard, ID: e.id,
		Shard: &scenario.Shard{Index: i, Count: e.shards},
		Info:  &info,
		Slots: e.ckpts[i].slots,
	}
}

func (m *Manager) compactLocked() error { return m.spool.Compact(m.liveRecords()) }

// append journals one record unless the crash simulation already declared
// the process dead (a dead manager must not write — that is the point of
// the simulation).
func (m *Manager) append(rec *Record) error {
	if m.dead.Load() {
		return errors.New("job: manager dead (crash simulation)")
	}
	return m.spool.Append(rec)
}

// Submit registers a job for (spec, seed) on behalf of client and returns
// its status. If a job with the same execution identity already exists the
// submission coalesces onto it (coalesced=true): done/failed/running/queued
// jobs answer with their current state; canceled ones, and failed ones that
// only ran out of transient retries, are requeued. New
// submissions pay the client's rate-limit token and queue quota, and are
// journaled durably before Submit returns. A spec the client got wrong
// fails with ErrInvalid; a journal failure does not wrap it.
func (m *Manager) Submit(spec *scenario.Spec, seed int64, client string) (st Status, coalesced bool, err error) {
	canonical, err := json.Marshal(spec)
	if err != nil {
		return Status{}, false, fmt.Errorf("job: canonicalizing spec: %w", err)
	}
	id := JobID(seed, canonical)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return Status{}, false, ErrDraining
	}
	if e, ok := m.jobs[id]; ok {
		if e.state != StateCanceled && (e.state != StateFailed || !e.exhausted) {
			m.coalescedN.Add(1)
			return m.statusLocked(e), true, nil
		}
		// Requeue a canceled or retry-exhausted job: journal a fresh submit
		// (replay requeues on the same rule), keep its checkpoints, give it a
		// fresh retry budget.
		if err := m.append(&Record{V: RecordVersion, Op: OpSubmit, ID: id, Seed: seed, Spec: canonical, Shards: e.shards, Client: client}); err != nil {
			return Status{}, false, err
		}
		e.state = StateQueued
		e.errMsg = ""
		e.exhausted = false
		e.retries = 0
		e.client = client
		e.hub = newHub()
		m.queue = append(m.queue, id)
		m.active[client]++
		m.submitted.Add(1)
		e.hub.publish(Event{Type: EventQueued, Shards: e.shards, ShardsDone: len(e.ckpts), Slots: e.slots, SlotsDone: e.ckptSlots()})
		m.cond.Signal()
		return m.statusLocked(e), false, nil
	}

	if m.cfg.CheckSpec != nil {
		if err := m.cfg.CheckSpec(spec); err != nil {
			return Status{}, false, fmt.Errorf("%w: %w", ErrInvalid, err)
		}
	}
	plan, err := scenario.PlanOf(spec, seed-1)
	if err != nil {
		return Status{}, false, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	if m.cfg.MaxPerClient > 0 && m.active[client] >= m.cfg.MaxPerClient {
		m.limitedN.Add(1)
		return Status{}, false, &QuotaError{
			Reason:     fmt.Sprintf("client %q has %d queued jobs (limit %d)", client, m.active[client], m.cfg.MaxPerClient),
			RetryAfter: 5,
		}
	}
	// The rate token is charged last: a submission refused for any other
	// reason commissions no work and must not drain the client's bucket.
	if err := m.rl.allow(client); err != nil {
		m.limitedN.Add(1)
		return Status{}, false, err
	}
	shards := m.cfg.ShardsPerJob
	if shards > plan.Jobs() {
		shards = plan.Jobs()
	}
	if err := m.append(&Record{V: RecordVersion, Op: OpSubmit, ID: id, Seed: seed, Spec: canonical, Shards: shards, Client: client}); err != nil {
		return Status{}, false, err
	}
	e := &entry{
		id:        id,
		seed:      seed,
		spec:      spec,
		canonical: canonical,
		client:    client,
		shards:    shards,
		slots:     plan.Jobs(),
		state:     StateQueued,
		hub:       newHub(),
	}
	m.jobs[id] = e
	m.order = append(m.order, id)
	m.queue = append(m.queue, id)
	m.active[client]++
	m.submitted.Add(1)
	e.hub.publish(Event{Type: EventQueued, Shards: shards, Slots: e.slots})
	m.cond.Signal()
	return m.statusLocked(e), false, nil
}

// Cancel moves a job to canceled: queued jobs are dropped from the queue,
// running ones have their execution context fired (the sweep aborts between
// rounds). Canceling an already-terminal job is an idempotent no-op
// returning its state.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	if terminalState(e.state) {
		return m.statusLocked(e), nil
	}
	if err := m.append(&Record{V: RecordVersion, Op: OpCancel, ID: id}); err != nil {
		return Status{}, err
	}
	m.finishLocked(e, StateCanceled, "")
	if e.cancel != nil {
		e.cancel()
	}
	for i, qid := range m.queue {
		if qid == id {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	return m.statusLocked(e), nil
}

// finishLocked applies a terminal transition: state, counters, quota
// release, terminal event, stream close.
func (m *Manager) finishLocked(e *entry, state, errMsg string) {
	e.state = state
	e.errMsg = errMsg
	if n := m.active[e.client]; n > 1 {
		m.active[e.client] = n - 1
	} else {
		delete(m.active, e.client)
	}
	switch state {
	case StateDone:
		m.doneN.Add(1)
	case StateFailed:
		m.failedN.Add(1)
	case StateCanceled:
		m.canceledN.Add(1)
	}
	e.hub.publish(Event{Type: terminalEventType(state), Shards: e.shards, ShardsDone: len(e.ckpts), Slots: e.slots, SlotsDone: e.ckptSlots(), Error: errMsg})
	e.hub.close()
}

// Status returns one job's state.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return m.statusLocked(e), nil
}

func (m *Manager) statusLocked(e *entry) Status {
	shardsDone, slotsDone := len(e.ckpts), e.slotsDone()
	if e.state == StateDone {
		// A done job's checkpoints compact away on restart; its progress is
		// by definition complete.
		shardsDone, slotsDone = e.shards, e.slots
	}
	return Status{
		ID:         e.id,
		State:      e.state,
		Spec:       e.spec.Name,
		Seed:       e.seed,
		Shards:     e.shards,
		ShardsDone: shardsDone,
		Slots:      e.slots,
		SlotsDone:  slotsDone,
		Error:      e.errMsg,
	}
}

// List returns every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

// Snapshot returns the manager's metrics.
func (m *Manager) Snapshot() Metrics {
	m.mu.Lock()
	queued, running := len(m.queue), m.running
	jobs := len(m.jobs)
	m.mu.Unlock()
	return Metrics{
		Jobs:        jobs,
		Queued:      queued,
		Running:     running,
		Submitted:   m.submitted.Load(),
		Coalesced:   m.coalescedN.Load(),
		Done:        m.doneN.Load(),
		Failed:      m.failedN.Load(),
		Canceled:    m.canceledN.Load(),
		Resumed:     m.resumedN.Load(),
		Checkpoints: uint64(m.ckptCount.Load()),
		RateLimited: m.limitedN.Load(),
	}
}

// Events subscribes to a job's progress stream: the hub replays its buffered
// window and then follows live events.
func (m *Manager) Events(id string) (*hub, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return e.hub, nil
}

// Result returns a done job's stored document; ext is ".md" or ".json". For
// a job in any other state it returns the status and a nil body.
func (m *Manager) Result(id, ext string) ([]byte, Status, error) {
	m.mu.Lock()
	e, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, Status{}, ErrNotFound
	}
	st := m.statusLocked(e)
	m.mu.Unlock()
	if st.State != StateDone {
		return nil, st, nil
	}
	body, err := m.spool.ReadResult(id, ext)
	if err != nil {
		return nil, st, err
	}
	return body, st, nil
}

// worker claims queued jobs and executes them until drain (or death).
func (m *Manager) worker() {
	defer m.workers.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.draining && !m.dead.Load() {
			m.cond.Wait()
		}
		if m.draining || m.dead.Load() {
			m.mu.Unlock()
			return
		}
		id := m.queue[0]
		m.queue = m.queue[1:]
		e := m.jobs[id]
		if e == nil || e.state != StateQueued {
			m.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		e.state = StateRunning
		e.cancel = cancel
		m.running++
		e.hub.publish(Event{Type: EventRunning, Shards: e.shards, ShardsDone: len(e.ckpts), Slots: e.slots, SlotsDone: e.ckptSlots()})
		m.mu.Unlock()

		m.execute(ctx, e)
		cancel()

		m.mu.Lock()
		m.running--
		e.cancel = nil
		m.mu.Unlock()
	}
}

// execute runs a job's remaining shards, checkpointing each, then assembles
// and stores the result. Every exit path leaves the job in a state the
// journal agrees with: terminal states are journaled before they are
// visible, and an abandoned execution (drain, crash, transient retry) leaves
// the job queued with its checkpoints intact.
func (m *Manager) execute(ctx context.Context, e *entry) {
	for {
		m.mu.Lock()
		next := len(e.ckpts)
		shards := e.shards
		stop := m.draining || m.dead.Load() || e.state != StateRunning
		m.mu.Unlock()
		if stop {
			m.requeueIfInterrupted(e)
			return
		}
		if next >= shards {
			break
		}

		sh := scenario.Shard{Index: next, Count: shards}
		e.liveSlots.Store(0)
		onSlot := func(out scenario.SlotOutcome) {
			e.liveSlots.Add(1)
			o := out
			e.hub.publish(Event{Type: EventSlot, Slot: &o, Shards: shards, Slots: e.slots})
		}
		info, slots, err := m.cfg.Exec(ctx, e.spec, e.seed, sh, onSlot)
		e.liveSlots.Store(0)
		if err != nil {
			m.execError(e, err)
			return
		}
		if len(e.ckpts) > 0 && info != e.ckpts[0].info {
			m.failJob(e, false, fmt.Sprintf("job %s: shard %s graph header %+v disagrees with checkpointed %+v", e.id, sh, info, e.ckpts[0].info))
			return
		}

		m.mu.Lock()
		if e.state != StateRunning {
			m.mu.Unlock()
			return
		}
		rec := &Record{V: RecordVersion, Op: OpShard, ID: e.id, Shard: &sh, Info: &info, Slots: slots}
		if err := m.append(rec); err != nil {
			m.mu.Unlock()
			m.cfg.Logf("job %s: checkpoint %s lost: %v", e.id, sh, err)
			m.retryOrFail(e, err)
			return
		}
		e.ckpts = append(e.ckpts, checkpoint{info: info, slots: slots})
		done := len(e.ckpts)
		m.mu.Unlock()
		e.hub.publish(Event{Type: EventShard, Shards: shards, ShardsDone: done, Slots: e.slots, SlotsDone: e.ckptSlots()})

		if n := m.ckptCount.Add(1); m.cfg.CrashAfterShards > 0 && n == int64(m.cfg.CrashAfterShards) {
			// Simulated SIGKILL: the process is dead from here on. Nothing
			// else may touch the journal; recovery happens in a fresh
			// manager on the same spool.
			m.dead.Store(true)
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
			if m.cfg.Crash != nil {
				m.cfg.Crash()
			}
			return
		}
	}
	m.assemble(e)
}

// requeueIfInterrupted returns an interrupted (drained/dead) running job to
// the queued state so journal replay and in-process state agree. Canceled
// jobs were already finished by Cancel.
func (m *Manager) requeueIfInterrupted(e *entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.state == StateRunning {
		e.state = StateQueued
	}
}

// execError routes one shard-execution error: cancellation tracks the
// journaled cancel/drain that caused it, terminal errors journal a fail,
// transient ones retry.
func (m *Manager) execError(e *entry, err error) {
	if errors.Is(err, sweep.ErrCanceled) || errors.Is(err, context.Canceled) {
		// The context fired: either Cancel journaled OpCancel and finished
		// the job, or drain/death interrupted it — requeue for resume.
		m.requeueIfInterrupted(e)
		return
	}
	if m.cfg.Terminal(err) {
		m.failJob(e, false, err.Error())
		return
	}
	m.retryOrFail(e, err)
}

// failJob journals and applies a failure: a deterministic one that
// resubmissions replay, or — exhausted — one that ran out of transient
// retries and runs again when resubmitted.
func (m *Manager) failJob(e *entry, exhausted bool, msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.state != StateRunning {
		return
	}
	if err := m.append(&Record{V: RecordVersion, Op: OpFail, ID: e.id, Error: msg, Exhausted: exhausted}); err != nil {
		m.cfg.Logf("job %s: journaling failure: %v", e.id, err)
		e.state = StateQueued // try again after restart; the journal has no fail record
		return
	}
	e.exhausted = exhausted
	m.finishLocked(e, StateFailed, msg)
}

// retryOrFail requeues a transiently failed job until its retry budget is
// spent, then journals it failed.
func (m *Manager) retryOrFail(e *entry, cause error) {
	m.mu.Lock()
	if e.state != StateRunning {
		m.mu.Unlock()
		return
	}
	e.retries++
	if e.retries <= m.cfg.Retries {
		m.cfg.Logf("job %s: transient failure (retry %d/%d): %v", e.id, e.retries, m.cfg.Retries, cause)
		e.state = StateQueued
		m.queue = append(m.queue, e.id)
		m.cond.Signal()
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	m.failJob(e, true, fmt.Sprintf("after %d retries: %v", m.cfg.Retries, cause))
}

// assemble merges a fully checkpointed job into its result documents and
// journals it done. scenario.Documents builds them, the builder a
// whole-grid POST /run answers with, so a document assembled here — after a
// crash-and-resume too — is byte-identical to the synchronous response.
func (m *Manager) assemble(e *entry) {
	slots := make([]scenario.SlotOutcome, e.slots)
	filled := 0
	for i := range e.ckpts {
		for _, out := range e.ckpts[i].slots {
			if out.Slot < 0 || out.Slot >= len(slots) {
				m.failJob(e, false, fmt.Sprintf("checkpoint slot %d out of range [0,%d)", out.Slot, len(slots)))
				return
			}
			slots[out.Slot] = out
			filled++
		}
	}
	if filled != len(slots) {
		m.failJob(e, false, fmt.Sprintf("checkpoints cover %d of %d slots", filled, len(slots)))
		return
	}
	md, js, err := scenario.Documents(e.spec, e.seed, e.ckpts[0].info, slots)
	if err != nil {
		m.failJob(e, false, err.Error())
		return
	}
	if err := m.spool.WriteResult(e.id, md, js); err != nil {
		m.retryOrFail(e, err)
		return
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if e.state != StateRunning {
		return
	}
	if err := m.append(&Record{V: RecordVersion, Op: OpDone, ID: e.id}); err != nil {
		// The result files exist but the done record does not: after a
		// restart the job re-runs from its checkpoints and rewrites the
		// identical bytes. Requeue rather than lie about durability.
		m.cfg.Logf("job %s: journaling done: %v", e.id, err)
		e.state = StateQueued
		return
	}
	m.finishLocked(e, StateDone, "")
}

// Drain stops the manager for shutdown: new submissions are refused, queued
// jobs stay journaled for the next process, running jobs stop at their next
// shard boundary — or are context-canceled when ctx fires first — and every
// open event stream receives a terminal drained event before its hub
// closes. The spool is closed when Drain returns.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: stop waiting for shard boundaries, fire the running
		// executions' contexts. Their work since the last checkpoint is
		// discarded; the journal already holds everything completed.
		m.mu.Lock()
		for _, e := range m.jobs {
			if e.cancel != nil {
				e.cancel()
			}
		}
		m.mu.Unlock()
		<-done
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.order {
		e := m.jobs[id]
		if !terminalState(e.state) {
			e.hub.publish(Event{Type: EventDrained, Shards: e.shards, ShardsDone: len(e.ckpts), Slots: e.slots, SlotsDone: e.ckptSlots()})
			e.hub.close()
		}
	}
	if m.dead.Load() {
		// A crashed (simulated) process does not get to tidy its journal.
		return nil
	}
	return m.spool.Close()
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}
