package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
)

// specState is one spec's coordinator-side bookkeeping: the graph-free plan
// fixes the grid shape up front, slots fill as shard documents arrive, and
// the graph header is cross-checked across shards — two replicas reporting
// different graphs for one spec is a determinism violation, not a fault to
// retry around.
type specState struct {
	spec     *scenario.Spec
	plan     *scenario.Plan
	body     []byte // canonical request body, shared by every attempt
	slots    []scenario.SlotOutcome
	have     []bool
	info     scenario.GraphInfo
	haveInfo bool
}

func (st *specState) merge(doc *serve.ShardDoc) error {
	if !st.haveInfo {
		st.info, st.haveInfo = doc.Graph, true
	} else if st.info != doc.Graph {
		return fmt.Errorf("%w: scenario %s: shard %s reports graph %+v, earlier shards reported %+v",
			ErrTerminal, st.spec.Name, doc.Shard, doc.Graph, st.info)
	}
	for _, so := range doc.Slots {
		if st.have[so.Slot] {
			return fmt.Errorf("%w: scenario %s: slot %d delivered twice", ErrTerminal, st.spec.Name, so.Slot)
		}
		st.have[so.Slot] = true
		st.slots[so.Slot] = so
	}
	return nil
}

type taskPhase int

const (
	taskReady    taskPhase = iota // dispatchable now
	taskWaiting                   // backing off until readyAt
	taskInflight                  // its one attempt running
	taskDone
)

// task is one (spec, shard) unit of work and its retry bookkeeping. A task
// has at most one attempt in flight, so nothing ever cancels an attempt but
// its own timeout and the drain.
type task struct {
	si       int
	shard    scenario.Shard
	phase    taskPhase
	attempts int // failed attempts so far
	readyAt  time.Time
}

func (t *task) key() string { return fmt.Sprintf("%d:%s", t.si, t.shard) }

// attemptDone is an attempt goroutine's single report back to the scheduler.
type attemptDone struct {
	t          *task
	rep        *replica // nil for in-process fallback
	doc        *serve.ShardDoc
	kind       outcomeKind
	err        error
	retryAfter time.Duration // 429 Retry-After floor, 0 otherwise
}

type probeDone struct {
	rep *replica
	ok  bool
}

type sweepRun struct {
	c      *Coordinator
	states []*specState
	tasks  []*task
	reps   []*replica

	events      chan any
	outstanding int
	remaining   int
	stats       Stats
	err         error
}

func (c *Coordinator) newRun(specs []*scenario.Spec) (*sweepRun, error) {
	run := &sweepRun{c: c, events: make(chan any)}
	for si, spec := range specs {
		plan, err := scenario.PlanOf(spec, c.cfg.Seed-1)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		st := &specState{
			spec:  spec,
			plan:  plan,
			body:  body,
			slots: make([]scenario.SlotOutcome, plan.Jobs()),
			have:  make([]bool, plan.Jobs()),
		}
		run.states = append(run.states, st)
		shards := c.cfg.Shards
		if jobs := plan.Jobs(); shards > jobs {
			shards = jobs // no empty shards on the wire
		}
		if shards < 1 {
			shards = 1
		}
		for i := 0; i < shards; i++ {
			run.tasks = append(run.tasks, &task{si: si, shard: scenario.Shard{Index: i, Count: shards}})
		}
	}
	for _, url := range c.cfg.Endpoints {
		run.reps = append(run.reps, &replica{url: url})
	}
	run.remaining = len(run.tasks)
	run.stats.Tasks = len(run.tasks)
	return run, nil
}

func (r *sweepRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// loop is the scheduler: a single goroutine owning every piece of task and
// replica state. Attempt and probe goroutines only perform I/O and report
// back over the events channel, so there is no locking anywhere, and the
// drain at the end guarantees no goroutine outlives the sweep.
func (r *sweepRun) loop(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	for r.remaining > 0 && r.err == nil {
		now := time.Now()
		for _, t := range r.tasks {
			if t.phase == taskWaiting && !now.Before(t.readyAt) {
				t.phase = taskReady
			}
		}
		r.launchProbes(ctx, now)
		r.dispatch(ctx)

		timer := time.NewTimer(r.wake(now))
		select {
		case ev := <-r.events:
			r.outstanding--
			r.handle(ctx, ev)
		case <-timer.C:
		case <-ctx.Done():
			r.fail(ctx.Err())
		}
		timer.Stop()
	}

	// Drain: cancel every live attempt, then wait for each outstanding
	// goroutine's report. After this, the sweep owns no goroutines.
	cancel()
	for r.outstanding > 0 {
		<-r.events
		r.outstanding--
	}
	for _, rep := range r.reps {
		r.stats.Replicas = append(r.stats.Replicas, rep.status())
	}
	return r.err
}

// dispatch hands ready tasks to available replicas and falls back
// in-process when no replica can take work.
func (r *sweepRun) dispatch(ctx context.Context) {
	for _, t := range r.tasks {
		if t.phase != taskReady {
			continue
		}
		if rep := r.pick(); rep != nil {
			r.launch(ctx, t, rep)
			continue
		}
		// No replica can take the task. If none will ever recover without a
		// probe cycle and fallback is on, run it here rather than stalling
		// the sweep on a fleet that may be entirely gone.
		if r.c.cfg.Fallback && r.allOpen() {
			r.launchFallback(ctx, t)
		}
	}
}

// launch starts one HTTP attempt of t on rep.
func (r *sweepRun) launch(ctx context.Context, t *task, rep *replica) {
	st := r.states[t.si]
	actx, acancel := context.WithTimeout(ctx, r.c.cfg.Timeout)
	t.phase = taskInflight
	rep.busy++
	rep.attempts++
	r.outstanding++
	r.stats.Attempts++
	go func() {
		defer acancel()
		doc, kind, retryAfter, err := r.c.call(actx, ctx, rep.url, st, t.shard)
		r.events <- attemptDone{t: t, rep: rep, doc: doc, kind: kind, err: err, retryAfter: retryAfter}
	}()
}

// launchFallback executes t in-process through the exact code path the
// replicas run, so the merged document cannot tell the difference.
func (r *sweepRun) launchFallback(ctx context.Context, t *task) {
	st := r.states[t.si]
	t.phase = taskInflight
	r.outstanding++
	r.stats.Fallbacks++
	r.c.logf("fabric: executing %s in-process (no replica available)", t.key())
	go func() {
		docs, _, err := serve.ExecuteShard([]*scenario.Spec{st.spec}, t.shard, serve.ExecOptions{
			Corpus:     r.c.corpus,
			SeedOffset: r.c.cfg.Seed - 1,
			Parallel:   r.c.cfg.FallbackParallel,
			Context:    ctx,
		})
		var doc *serve.ShardDoc
		kind := outcomeOK
		if err == nil {
			doc = docs[0]
		} else {
			// Local execution failures are deterministic (the same spec
			// would fail anywhere) — except a cancellation racing the drain.
			kind = outcomeTerminal
			if ctx.Err() != nil {
				kind = outcomeCanceled
			}
		}
		r.events <- attemptDone{t: t, doc: doc, kind: kind, err: err}
	}()
}

func (r *sweepRun) launchProbes(ctx context.Context, now time.Time) {
	for _, rep := range r.reps {
		if rep.state != breakerOpen || rep.probing || now.Before(rep.probeAt) {
			continue
		}
		rep.probing = true
		r.outstanding++
		r.stats.Probes++
		rep := rep
		go func() {
			ok := r.c.probe(ctx, rep.url)
			r.events <- probeDone{rep: rep, ok: ok}
		}()
	}
}

func (r *sweepRun) handle(ctx context.Context, ev any) {
	switch ev := ev.(type) {
	case probeDone:
		ev.rep.probing = false
		if ev.ok {
			ev.rep.state = breakerHalfOpen
			r.c.logf("fabric: %s half-open after probe", ev.rep.url)
		} else {
			ev.rep.probeAt = time.Now().Add(r.c.cfg.ProbeInterval)
		}
	case attemptDone:
		t := ev.t
		if ev.rep != nil {
			ev.rep.busy--
		}
		switch ev.kind {
		case outcomeOK:
			if ev.rep != nil {
				r.noteSuccess(ev.rep)
			}
			st := r.states[t.si]
			if err := ev.doc.Validate(st.spec.Name, r.c.cfg.Seed, t.shard, st.plan.Jobs()); err != nil {
				// Defense in depth: call already validated; a failure here
				// means the scheduler mismatched task and document.
				r.fail(fmt.Errorf("%w: %v", ErrTerminal, err))
				return
			}
			if err := st.merge(ev.doc); err != nil {
				r.fail(err)
				return
			}
			t.phase = taskDone
			r.remaining--
		case outcomeTerminal:
			r.fail(fmt.Errorf("%w: %s: %v", ErrTerminal, t.key(), ev.err))
		case outcomeCanceled:
			if ctx.Err() != nil {
				r.fail(ctx.Err())
				return
			}
			// Not the sweep's context: the attempt's own deadline. Retriable.
			fallthrough
		case outcomeRetriable:
			if ev.rep != nil {
				r.noteFailure(ev.rep)
			}
			t.attempts++
			r.stats.Retries++
			r.c.logf("fabric: %s attempt %d failed: %v", t.key(), t.attempts, ev.err)
			if t.attempts >= r.c.cfg.MaxAttempts {
				if r.c.cfg.Fallback {
					r.launchFallback(ctx, t)
					return
				}
				r.fail(fmt.Errorf("%w: %s after %d attempts: %v", ErrExhausted, t.key(), t.attempts, ev.err))
				return
			}
			t.phase = taskWaiting
			t.readyAt = time.Now().Add(r.backoff(t, ev.retryAfter))
		}
	}
}

// wake bounds how long the scheduler sleeps when no event arrives: until
// the next backoff expiry or probe due time, whichever is first. Events
// (attempt and probe completions) interrupt it anyway.
func (r *sweepRun) wake(now time.Time) time.Duration {
	const idle = 500 * time.Millisecond
	d := idle
	consider := func(at time.Time) {
		if w := at.Sub(now); w < d {
			if w < time.Millisecond {
				w = time.Millisecond
			}
			d = w
		}
	}
	for _, t := range r.tasks {
		if t.phase == taskWaiting {
			consider(t.readyAt)
		}
	}
	for _, rep := range r.reps {
		if rep.state == breakerOpen && !rep.probing {
			consider(rep.probeAt)
		}
	}
	return d
}

// backoff computes the delay before t's next attempt: exponential in the
// attempt count, jittered deterministically by (seed, task, attempt), and
// floored at a replica's Retry-After hint when one was given.
func (r *sweepRun) backoff(t *task, floor time.Duration) time.Duration {
	d := r.c.cfg.BaseBackoff << (t.attempts - 1)
	if d > r.c.cfg.MaxBackoff || d <= 0 {
		d = r.c.cfg.MaxBackoff
	}
	// Jitter into [d/2, d): full jitter trades contention for tail latency;
	// half keeps the expected schedule predictable while still de-phasing
	// simultaneous failures.
	j := jitter(r.c.cfg.BackoffSeed, t.key(), t.attempts)
	d = d/2 + time.Duration(j*float64(d/2))
	if d < floor {
		d = floor
	}
	return d
}
