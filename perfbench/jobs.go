package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/job"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
)

// jobsMix is the jobs workload's specs: cheap ones only, so the job layer's
// disk path rather than the engine dominates.
var jobsMix = []string{
	"mis-id-gnp-dense",
	"mis-delta-cycle-dense",
	"deg-coloring-hypercube-dense",
	"luby-ba-seeds",
}

// jobsCapacity is about the jobs workload's closed-loop capacity (jobs/s) on
// a two-CPU machine; it sizes the closed loop.
const jobsCapacity = 35

// pollEvery is the fixed interval of GET /jobs/{id} polls. Each job's polls
// start at its own phase within the interval: the specs are cheap and
// similar, so with polls in step with the submission most jobs would be
// seen done at the same poll, and a few milliseconds of server time more or
// less would move the run's percentiles by a whole interval.
const pollEvery = 10 * time.Millisecond

// jobStatus is the part of the job API's status document the benchmark
// reads.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Error     string `json:"error"`
	Coalesced bool   `json:"coalesced"`
}

// submission is what one job's life cycle observed.
type submission struct {
	id        string
	coalesced bool
	ack       time.Duration // from start of the operation to the POST's answer
	err       error
}

// pollPhase spreads the first poll of the i-th job over the poll interval.
func pollPhase(i int) time.Duration { return pollEvery * time.Duration((i*7)%10) / 10 }

func jobsKey(a arrival) string { return fmt.Sprintf("%s/seed=%d", jobsMix[a.Spec], a.Seed) }

// runJobs is the open-loop job workload: Poisson POST /jobs from
// jobsClients identities at the pinned rate, each followed by fixed-interval
// status polls and a result fetch, then a closed loop of new jobs with one
// client per CPU.
func runJobs(b *bench) error {
	bodies, err := b.loadMix(jobsMix)
	if err != nil {
		return err
	}
	launches := 0
	var spool string
	start := func() ([]*proc, error) {
		spool = filepath.Join(b.work, fmt.Sprintf("spool-%d", launches))
		launches++
		p, err := b.startServer("-spool", spool)
		return []*proc{p}, err
	}
	procs, before, err := b.launch(setupBefore, start)
	if err != nil {
		return err
	}
	srv := procs[0]
	rate := *flagJobsRate
	closedN := int(closedShare * b.seconds.Seconds() * jobsCapacity)
	open, closed := jobsSchedule(b.seed, rate, time.Duration(openShare*float64(b.seconds)), closedN, len(jobsMix))
	c := newClient(b.conns)
	var seen sameBodies

	// lifecycle submits one job, polls it to a terminal state and fetches
	// its markdown result.
	lifecycle := func(a arrival, phase time.Duration) submission {
		var s submission
		t0 := time.Now()
		resp, body, err := do(b.ctx, c, http.MethodPost, fmt.Sprintf("%s/jobs?seed=%d", srv.url, a.Seed), bodies[a.Spec],
			map[string]string{"X-Client": fmt.Sprintf("client-%d", a.Client)})
		if err == nil {
			err = errStatus("POST /jobs", resp, body)
		}
		var st jobStatus
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
		if err != nil {
			s.err = err
			return s
		}
		s.ack = time.Since(t0)
		s.id, s.coalesced = st.ID, st.Coalesced
		wait := phase
		for st.State != job.StateDone && st.State != job.StateFailed && st.State != job.StateCanceled {
			select {
			case <-time.After(wait):
			case <-b.ctx.Done():
				s.err = b.ctx.Err()
				return s
			}
			wait = pollEvery
			if err := getJSON(b, c, srv.url+"/jobs/"+s.id, &st); err != nil {
				s.err = err
				return s
			}
		}
		if st.State != job.StateDone {
			s.err = fmt.Errorf("job %s (%s) ended %s: %s", s.id, jobsKey(a), st.State, st.Error)
			return s
		}
		resp, body, err = do(b.ctx, c, http.MethodGet, srv.url+"/jobs/"+s.id+"/result?format=md", nil, nil)
		if err == nil {
			err = errStatus("GET result", resp, body)
		}
		if err != nil {
			s.err = err
			return s
		}
		if !seen.check(jobsKey(a), body) {
			b.rep.mismatch("two results for %s differ", jobsKey(a))
		}
		return s
	}

	subs := make([]submission, len(open))
	dues := make([]time.Duration, len(open))
	for i, a := range open {
		dues[i] = a.Due
	}
	outs := openLoop(b.ctx, dues, func(i int) error {
		subs[i] = lifecycle(open[i], pollPhase(i))
		return subs[i].err
	})
	closedSubs := make([]submission, len(closed))
	closedLat, _, closedWall := closedLoop(b.ctx, len(closed), b.conns, func(i int) error {
		closedSubs[i] = lifecycle(closed[i], pollPhase(i))
		return closedSubs[i].err
	})

	var acks, late []float64
	for i, o := range outs {
		b.rep.op(o.Err)
		late = append(late, float64(o.Late)/float64(time.Millisecond))
		if o.Err == nil {
			acks = append(acks, float64(o.Late+subs[i].ack)/float64(time.Millisecond))
		}
	}
	completed := 0
	for i := range closedLat {
		b.rep.op(closedSubs[i].err)
		if closedSubs[i].err == nil {
			completed++
		}
	}
	b.checkCoalescing(open, subs)

	var list struct {
		Metrics job.Metrics `json:"metrics"`
	}
	var sm serve.Metrics
	if b.trace {
		if err := getJSON(b, c, srv.url+"/jobs", &list); err != nil {
			return err
		}
		if err := getJSON(b, c, srv.url+"/metrics", &sm); err != nil {
			return err
		}
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if err := b.checkSamples(open, seen.get, func(a arrival) (string, bool) { return jobsKey(a), a.Dup < 0 }, jobsMix); err != nil {
		return err
	}

	if !b.trace {
		setup, err := b.setupAfter(before, start)
		if err != nil {
			return err
		}
		r := b.rep
		r.set("setup_s", "s", setup)
		r.set("wall_s", "s", closedWall.Seconds())
		// Turnaround percentiles come from the closed loop. In the open
		// loop they moved by up to 50% between runs of identical work with
		// different arrival times, while closed-loop throughput held within
		// 10%.
		turnaround := durationsMs(closedLat)
		r.set("p50_ms", "ms", quantile(turnaround, 0.5))
		r.set("p85_ms", "ms", quantile(turnaround, tailQuantile))
		r.set("capacity_rps", "1/s", float64(completed)/closedWall.Seconds())
		r.set("max_rss_mb", "MB", float64(srv.maxRSS)/1024)
		return nil
	}
	r := b.rep
	jm := list.Metrics
	r.set("job.submit_p50_ms", "ms", quantile(acks, 0.5))
	r.set("job.checkpoints", "count", float64(jm.Checkpoints))
	r.set("job.coalesced", "count", float64(jm.Coalesced))
	r.set("job.rate_limited", "count", float64(jm.RateLimited))
	r.set("graph.corpus_hit_ratio", "ratio", ratio(sm.Corpus.Hits, sm.Corpus.Hits+sm.Corpus.Misses))
	r.set("loadgen.late_p95_ms", "ms", quantile(late, 0.95))
	return b.traceJobs(bodies, append(open, closed...), spool, &seen)
}

// checkCoalescing checks the duplicate oracle: every submission of one
// (spec, seed) lands on one job ID, exactly one of them is new and the rest
// answer coalesced.
func (b *bench) checkCoalescing(open []arrival, subs []submission) {
	type tally struct {
		id    string
		fresh int
		all   int
	}
	byKey := make(map[string]*tally)
	for i, a := range open {
		s := subs[i]
		if s.id == "" {
			continue
		}
		t := byKey[jobsKey(a)]
		if t == nil {
			t = &tally{id: s.id}
			byKey[jobsKey(a)] = t
		}
		t.all++
		if !s.coalesced {
			t.fresh++
		}
		if s.id != t.id {
			b.rep.mismatch("%s answered job IDs %s and %s", jobsKey(a), t.id, s.id)
		}
	}
	for k, t := range byKey {
		if t.fresh != 1 {
			b.rep.mismatch("%s: %d of %d submissions were not coalesced, want exactly 1", k, t.fresh, t.all)
		}
	}
}

// traceJobs replays the submissions in-process and sequentially through
// the spool's exported durability calls — journal appends with fsync for
// the submit, each shard checkpoint and the done record, and the result
// store's writes — around an in-process execution of each new job; then it
// times OpenSpool replaying the journal the served run left behind.
func (b *bench) traceJobs(bodies [][]byte, sched []arrival, served string, seen *sameBodies) error {
	runs := 0
	replay := func(tr *tracer) (*replayer, time.Duration, error) {
		rp := newReplayer(tr)
		dir := filepath.Join(b.work, fmt.Sprintf("replay-spool-%d", runs))
		runs++
		var err error
		t0 := time.Now()
		tr.do("replay", func() {
			var sp *job.Spool
			tr.do("job.open", func() { sp, _, err = job.OpenSpool(dir, job.Hooks{}) })
			if err != nil {
				return
			}
			defer sp.Close()
			c := graph.NewBoundedCorpus(serve.DefaultCorpusLimit)
			ids := make(map[string]bool)
			for _, a := range sched {
				if err = b.replayJob(rp, sp, c, ids, bodies[a.Spec], a, seen); err != nil {
					return
				}
			}
			tr.do("job.replay", func() {
				var s *job.Spool
				if s, _, err = job.OpenSpool(served, job.Hooks{}); err == nil {
					err = s.Close()
				}
			})
		})
		return rp, time.Since(t0), err
	}
	return b.traceReplay(replay)
}

// replayJob journals and executes one submission the way the job manager
// does; a duplicate of an earlier submission only pays the parse and
// canonicalization, as in the served run.
func (b *bench) replayJob(rp *replayer, sp *job.Spool, c *graph.Corpus, ids map[string]bool, body []byte, a arrival, seen *sameBodies) error {
	tr := rp.tr
	spec, err := rp.parse(body)
	if err != nil {
		return err
	}
	var canonical []byte
	tr.do("job.canonical", func() { canonical, err = json.Marshal(spec) })
	if err != nil {
		return err
	}
	id := job.JobID(a.Seed, canonical)
	if ids[id] {
		return nil
	}
	ids[id] = true
	plan, err := scenario.PlanOf(spec, a.Seed-1)
	if err != nil {
		return err
	}
	shards := min(job.DefaultShardsPerJob, plan.Jobs())
	appendRec := func(rec *job.Record) error {
		var err error
		tr.do("job.append", func() { err = sp.Append(rec) })
		return err
	}
	if err := appendRec(&job.Record{V: job.RecordVersion, Op: job.OpSubmit, ID: id, Seed: a.Seed, Spec: canonical, Shards: shards,
		Client: fmt.Sprintf("client-%d", a.Client)}); err != nil {
		return err
	}
	out, err := rp.execute([]*scenario.Spec{spec}, c, a.Seed-1)
	if err != nil {
		return err
	}
	slots := make([]scenario.SlotOutcome, len(out.Results))
	for k, r := range out.Results {
		slots[k] = scenario.SlotOutcome{Slot: k, Rounds: r.Res.Rounds, Messages: r.Res.Messages}
	}
	info := scenario.InfoOf(out.Batch.Graphs[0])
	for i := 0; i < shards; i++ {
		sh := scenario.Shard{Index: i, Count: shards}
		var part []scenario.SlotOutcome
		for _, k := range sh.Slots(len(slots)) {
			part = append(part, slots[k])
		}
		if err := appendRec(&job.Record{V: job.RecordVersion, Op: job.OpShard, ID: id, Shard: &sh, Info: &info, Slots: part}); err != nil {
			return err
		}
	}
	var data []byte
	tr.do("job.encode", func() {
		var doc any
		if doc, err = scenario.SlotsDoc(plan, info, slots, a.Seed); err == nil {
			data, err = json.MarshalIndent(doc, "", "  ")
		}
	})
	if err != nil {
		return err
	}
	tr.do("job.write_result", func() { err = sp.WriteResult(id, out.Markdown, append(data, '\n')) })
	if err != nil {
		return err
	}
	if want := seen.get(jobsKey(a)); want != nil && string(want) != string(out.Markdown) {
		b.rep.mismatch("in-process execution of %s differs from the served result", jobsKey(a))
	}
	return appendRec(&job.Record{V: job.RecordVersion, Op: job.OpDone, ID: id})
}
