package job

// Crash-recovery and durability tests for the async job subsystem: journal
// torn-tail replay, resume from the last checkpointed shard boundary after a
// simulated SIGKILL with byte-identical recovered documents,
// duplicate-submission coalescing across restarts, cancellation, quotas,
// graceful drain with terminal drained events, and injected disk faults.
// All run under -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unilocal/unilocal/internal/fabric/faultinject"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
)

// testSpec expands to a 4-slot grid (4 seeds × 1 rep, no baseline): with
// ShardsPerJob 2 that is two checkpoints of two slots each.
const testSpec = `{
  "name": "job-luby",
  "graph": {"family": "cycle", "n": 64},
  "algorithm": {"name": "luby-mis"},
  "seeds": [1, 2, 3, 4]
}`

func parseSpec(t *testing.T, src string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatalf("parsing spec: %v", err)
	}
	return spec
}

// realExec returns a production executor: a serve.Server's shard execution
// path, exactly what cmd/localserved injects.
func realExec() ExecFunc {
	return serve.New(serve.Config{Parallel: 2}).ShardExecutor()
}

// fakeExec returns deterministic synthetic outcomes without running any
// simulation; calls counts shard executions when non-nil.
func fakeExec(calls *atomic.Int64) ExecFunc {
	return func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		if calls != nil {
			calls.Add(1)
		}
		plan, err := scenario.PlanOf(spec, seed-1)
		if err != nil {
			return scenario.GraphInfo{}, nil, err
		}
		var out []scenario.SlotOutcome
		for _, s := range shard.Slots(plan.Jobs()) {
			o := scenario.SlotOutcome{Slot: s, Rounds: s + 1, Messages: int64(10 * (s + 1))}
			if onSlot != nil {
				onSlot(o)
			}
			out = append(out, o)
		}
		return scenario.GraphInfo{N: 8, Edges: 8, MaxDeg: 2, MaxID: 8}, out, nil
	}
}

func newManager(t *testing.T, dir string, mut func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		Dir:      dir,
		Exec:     fakeExec(nil),
		Terminal: serve.TerminalError,
		Workers:  1,
		Rate:     -1, // most tests are not about rate limiting
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func waitState(t *testing.T, m *Manager, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := m.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want %q): %+v", id, st.State, want, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestJournalTornTailReplay(t *testing.T) {
	recs := []*Record{
		{V: RecordVersion, Op: OpSubmit, ID: "a", Seed: 1, Spec: []byte(`{"x":1}`), Shards: 2, Client: "c"},
		{V: RecordVersion, Op: OpShard, ID: "a", Shard: &scenario.Shard{Index: 0, Count: 2}, Info: &scenario.GraphInfo{N: 4}, Slots: []scenario.SlotOutcome{{Slot: 0, Rounds: 3, Messages: 7}}},
		{V: RecordVersion, Op: OpDone, ID: "a"},
	}
	var raw []byte
	for _, r := range recs {
		line, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, line...)
	}

	full, valid, err := parseJournal(raw)
	if err != nil || len(full) != 3 || valid != int64(len(raw)) {
		t.Fatalf("clean journal: %d recs, valid=%d, err=%v", len(full), valid, err)
	}

	// A torn tail — the final record cut anywhere — drops exactly that
	// record and reports the clean prefix length.
	lastStart := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	for cut := lastStart + 1; cut < len(raw); cut++ {
		got, valid, err := parseJournal(raw[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(got) != 2 || valid != int64(lastStart) {
			t.Fatalf("cut at %d: %d recs, valid=%d (want 2 recs, valid=%d)", cut, len(got), valid, lastStart)
		}
	}

	// A complete final line whose middle is damaged also drops (its newline
	// landed but its bytes did not all make it).
	damaged := append([]byte(nil), raw...)
	damaged[lastStart+12] ^= 0xff
	got, valid, err := parseJournal(damaged)
	if err != nil || len(got) != 2 || valid != int64(lastStart) {
		t.Fatalf("damaged tail: %d recs, valid=%d, err=%v", len(got), valid, err)
	}

	// Mid-file damage is corruption, not a torn tail.
	damaged = append([]byte(nil), raw...)
	damaged[5] ^= 0xff
	if _, _, err := parseJournal(damaged); err == nil {
		t.Fatal("mid-file corruption not detected")
	}
}

func TestSpoolTornTailOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, recs, err := OpenSpool(dir, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh spool replayed %d records", len(recs))
	}
	r1 := &Record{V: RecordVersion, Op: OpSubmit, ID: "a", Seed: 1, Spec: []byte(`{}`), Shards: 1}
	r2 := &Record{V: RecordVersion, Op: OpDone, ID: "a"}
	if err := s.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(r2); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: raw garbage without a newline at the tail.
	if _, err := s.f.WriteString(`deadbeef {"v":1,"op":"fa`); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, recs, err := OpenSpool(dir, Hooks{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	if len(recs) != 2 || recs[0].Op != OpSubmit || recs[1].Op != OpDone {
		t.Fatalf("replay after torn tail: %+v", recs)
	}
	// The tail was truncated; the journal must accept appends again.
	if err := s2.Append(&Record{V: RecordVersion, Op: OpCancel, ID: "a"}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashResumeByteIdentical is the tentpole's acceptance test: kill the
// process (simulated) after the first shard checkpoint, restart on the same
// spool, and require (a) only the remaining shards re-execute and (b) the
// recovered markdown and JSON documents are byte-identical to an
// uninterrupted run's.
func TestCrashResumeByteIdentical(t *testing.T) {
	spec := parseSpec(t, testSpec)

	// Uninterrupted baseline.
	m1 := newManager(t, t.TempDir(), func(c *Config) { c.Exec = realExec(); c.ShardsPerJob = 2 })
	st, coalesced, err := m1.Submit(spec, 1, "t")
	if err != nil || coalesced {
		t.Fatalf("Submit: %+v, %v, %v", st, coalesced, err)
	}
	waitState(t, m1, st.ID, StateDone)
	wantMD, _, err := m1.Result(st.ID, ".md")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _, err := m1.Result(st.ID, ".json")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, m1)
	if !strings.Contains(string(wantMD), "### job-luby") {
		t.Fatalf("baseline markdown suspect:\n%s", wantMD)
	}

	// Crash after the first of two checkpoints.
	dir := t.TempDir()
	crashed := make(chan struct{})
	m2 := newManager(t, dir, func(c *Config) {
		c.Exec = realExec()
		c.ShardsPerJob = 2
		c.CrashAfterShards = 1
		c.Crash = func() { close(crashed) }
	})
	st2, _, err := m2.Submit(spec, 1, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("same (spec, seed) hashed to different IDs: %s vs %s", st2.ID, st.ID)
	}
	select {
	case <-crashed:
	case <-time.After(15 * time.Second):
		t.Fatal("crash hook never fired")
	}
	// The dead manager journals nothing more; a duplicate of the kill test's
	// invariant: its in-memory state is irrelevant from here.

	// Restart on the same spool with an execution counter.
	var calls atomic.Int64
	base := realExec()
	countingExec := func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		calls.Add(1)
		return base(ctx, spec, seed, shard, onSlot)
	}
	m3 := newManager(t, dir, func(c *Config) { c.Exec = countingExec; c.ShardsPerJob = 2 })
	defer drain(t, m3)
	fin := waitState(t, m3, st.ID, StateDone)
	if fin.ShardsDone != 2 || fin.SlotsDone != 4 {
		t.Fatalf("recovered status: %+v", fin)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("resume re-executed %d shards, want exactly the 1 lost one", n)
	}
	if m3.Snapshot().Resumed != 1 {
		t.Fatalf("resumed metric: %+v", m3.Snapshot())
	}

	gotMD, _, err := m3.Result(st.ID, ".md")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _, err := m3.Result(st.ID, ".json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMD, wantMD) {
		t.Fatalf("recovered markdown differs from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s", gotMD, wantMD)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("recovered JSON differs from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s", gotJSON, wantJSON)
	}
}

// TestCoalesceAcrossRestart: a duplicate submitted to a fresh process over
// the same spool answers from the stored result without re-executing.
func TestCoalesceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := parseSpec(t, testSpec)

	m1 := newManager(t, dir, nil)
	st, _, err := m1.Submit(spec, 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, st.ID, StateDone)
	drain(t, m1)

	var calls atomic.Int64
	m2 := newManager(t, dir, func(c *Config) { c.Exec = fakeExec(&calls) })
	defer drain(t, m2)
	st2, coalesced, err := m2.Submit(spec, 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	if !coalesced || st2.State != StateDone || st2.ID != st.ID {
		t.Fatalf("restart duplicate: coalesced=%v %+v", coalesced, st2)
	}
	if calls.Load() != 0 {
		t.Fatalf("duplicate re-executed %d shards", calls.Load())
	}
	if body, _, err := m2.Result(st.ID, ".md"); err != nil || len(body) == 0 {
		t.Fatalf("stored result unreadable after restart: %v", err)
	}
	// A different seed is different work, not a duplicate.
	st3, coalesced, err := m2.Submit(spec, 2, "b")
	if err != nil {
		t.Fatal(err)
	}
	if coalesced || st3.ID == st.ID {
		t.Fatalf("different seed coalesced: %+v", st3)
	}
}

func TestCoalesceLive(t *testing.T) {
	spec := parseSpec(t, testSpec)
	release := make(chan struct{})
	var calls atomic.Int64
	slow := func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return scenario.GraphInfo{}, nil, ctx.Err()
		}
		return fakeExec(&calls)(ctx, spec, seed, shard, onSlot)
	}
	m := newManager(t, t.TempDir(), func(c *Config) { c.Exec = slow; c.ShardsPerJob = 1 })
	defer drain(t, m)
	st1, c1, err := m.Submit(spec, 1, "a")
	if err != nil || c1 {
		t.Fatalf("first submit: %v coalesced=%v", err, c1)
	}
	st2, c2, err := m.Submit(spec, 1, "b")
	if err != nil || !c2 || st2.ID != st1.ID {
		t.Fatalf("live duplicate: %v coalesced=%v %+v", err, c2, st2)
	}
	close(release)
	waitState(t, m, st1.ID, StateDone)
	if calls.Load() != 1 {
		t.Fatalf("%d executions for 2 submissions of one job", calls.Load())
	}
	if m.Snapshot().Coalesced != 1 {
		t.Fatalf("coalesced metric: %+v", m.Snapshot())
	}
}

func TestCancelAndResubmit(t *testing.T) {
	spec := parseSpec(t, testSpec)
	var blocked atomic.Bool
	blocked.Store(true)
	started := make(chan struct{}, 8)
	exec := func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		if blocked.Load() {
			started <- struct{}{}
			<-ctx.Done()
			return scenario.GraphInfo{}, nil, fmt.Errorf("shard %s: %w", shard, ctx.Err())
		}
		return fakeExec(nil)(ctx, spec, seed, shard, onSlot)
	}
	m := newManager(t, t.TempDir(), func(c *Config) { c.Exec = exec; c.ShardsPerJob = 2 })
	defer drain(t, m)

	st, _, err := m.Submit(spec, 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	got, err := m.Cancel(st.ID)
	if err != nil || got.State != StateCanceled {
		t.Fatalf("Cancel: %+v, %v", got, err)
	}
	// Idempotent.
	if again, err := m.Cancel(st.ID); err != nil || again.State != StateCanceled {
		t.Fatalf("second Cancel: %+v, %v", again, err)
	}
	// Result refuses with status, not bytes.
	if body, rst, err := m.Result(st.ID, ".md"); err != nil || body != nil || rst.State != StateCanceled {
		t.Fatalf("Result of canceled job: body=%v st=%+v err=%v", body, rst, err)
	}

	// Resubmission requeues (coalesced=false: it is new work now).
	blocked.Store(false)
	st2, coalesced, err := m.Submit(spec, 1, "a")
	if err != nil || coalesced || st2.ID != st.ID {
		t.Fatalf("resubmit after cancel: %+v coalesced=%v err=%v", st2, coalesced, err)
	}
	waitState(t, m, st.ID, StateDone)
}

func TestQuotaMaxPerClient(t *testing.T) {
	specA := parseSpec(t, testSpec)
	specB := parseSpec(t, strings.Replace(testSpec, "job-luby", "job-luby-b", 1))
	specC := parseSpec(t, strings.Replace(testSpec, "job-luby", "job-luby-c", 1))
	release := make(chan struct{})
	exec := func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return scenario.GraphInfo{}, nil, ctx.Err()
		}
		return fakeExec(nil)(ctx, spec, seed, shard, onSlot)
	}
	m := newManager(t, t.TempDir(), func(c *Config) { c.Exec = exec; c.MaxPerClient = 1 })
	defer func() { close(release); drain(t, m) }()

	if _, _, err := m.Submit(specA, 1, "alice"); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.Submit(specB, 1, "alice")
	var qe *QuotaError
	if !asQuota(err, &qe) || qe.RetryAfter < 1 {
		t.Fatalf("over-quota submit: %v", err)
	}
	// Another client is unaffected.
	if _, _, err := m.Submit(specC, 1, "bob"); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
}

func TestRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newQuotas(1, 2, func() time.Time { return now })
	if err := q.allow("c"); err != nil {
		t.Fatal(err)
	}
	if err := q.allow("c"); err != nil {
		t.Fatal(err)
	}
	err := q.allow("c")
	var qe *QuotaError
	if !asQuota(err, &qe) || qe.RetryAfter < 1 {
		t.Fatalf("drained bucket allowed: %v", err)
	}
	// Refill at 1 token/s.
	now = now.Add(1500 * time.Millisecond)
	if err := q.allow("c"); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	// Other clients have their own buckets.
	if err := q.allow("d"); err != nil {
		t.Fatalf("fresh client: %v", err)
	}
}

func asQuota(err error, qe **QuotaError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*QuotaError)
	if ok {
		*qe = e
	}
	return ok
}

// TestDrainCheckpointsAndDrainedEvent: drain stops a running job at its next
// shard boundary, flushes a drained event to its open stream, and the next
// process resumes from the checkpoint.
func TestDrainCheckpointsAndDrainedEvent(t *testing.T) {
	dir := t.TempDir()
	spec := parseSpec(t, testSpec)
	gate := make(chan struct{}, 16)
	exec := func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		select {
		case <-gate: // one token per shard execution
		case <-ctx.Done():
			return scenario.GraphInfo{}, nil, ctx.Err()
		}
		return fakeExec(nil)(ctx, spec, seed, shard, onSlot)
	}
	m := newManager(t, dir, func(c *Config) { c.Exec = exec; c.ShardsPerJob = 4 })
	st, _, err := m.Submit(spec, 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Events(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // let exactly one shard finish

	// Wait for the first checkpoint, then drain while the worker blocks on
	// the gate for shard 2.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, _ := m.Status(st.ID)
		if s.ShardsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first checkpoint never landed: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- m.Drain(ctx)
	}()
	for !m.Draining() {
		time.Sleep(time.Millisecond)
	}
	gate <- struct{}{} // let the parked shard reach its boundary; drain stops there

	// The open stream must end with a drained event.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var last Event
	cursor := 0
	for {
		evs, next, done := h.nextEvents(ctx, cursor)
		cursor = next
		for _, ev := range evs {
			last = ev
		}
		if done {
			break
		}
	}
	if last.Type != EventDrained {
		t.Fatalf("stream ended with %q, want drained", last.Type)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	close(gate)

	// Resume: the next process finishes only the remaining shards.
	var calls atomic.Int64
	m2 := newManager(t, dir, func(c *Config) { c.Exec = fakeExec(&calls); c.ShardsPerJob = 4 })
	defer drain(t, m2)
	fin := waitState(t, m2, st.ID, StateDone)
	if fin.ShardsDone != 4 {
		t.Fatalf("resumed status: %+v", fin)
	}
	if calls.Load() >= 4 {
		t.Fatalf("resume re-executed all %d shards; checkpoints ignored", calls.Load())
	}
}

// TestDiskFaultTornAppend: a short write on the journal append surfaces an
// error, and the torn record is dropped on replay — the submission it
// belonged to never happened.
func TestDiskFaultTornAppend(t *testing.T) {
	dir := t.TempDir()
	disk := &faultinject.Disk{Seed: 7, Rules: []faultinject.DiskRule{
		{Match: faultinject.OpAppend, Every: 3, ShortWrite: true},
	}}
	s, _, err := OpenSpool(dir, Hooks{Append: disk.Append, Sync: disk.Sync, WriteFile: disk.WriteFile})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(id string) *Record {
		return &Record{V: RecordVersion, Op: OpSubmit, ID: id, Seed: 1, Spec: []byte(`{}`), Shards: 1}
	}
	if err := s.Append(rec("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("c")); err == nil {
		t.Fatal("short write reported success")
	} else if !strings.Contains(err.Error(), "disk fault") {
		t.Fatalf("unexpected error: %v", err)
	}
	s.Close()
	if st := disk.Stats(); st.ShortWrites != 1 {
		t.Fatalf("disk stats: %+v", st)
	}

	s2, recs, err := OpenSpool(dir, Hooks{})
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	defer s2.Close()
	if len(recs) != 2 || recs[0].ID != "a" || recs[1].ID != "b" {
		t.Fatalf("replay after torn append: %+v", recs)
	}
}

// TestDiskFaultFsync: a failed fsync refuses the submission — the record may
// not be durable, so the job must not be acknowledged.
func TestDiskFaultFsync(t *testing.T) {
	disk := &faultinject.Disk{Seed: 7, Rules: []faultinject.DiskRule{
		{Match: faultinject.OpSync, Every: 1, FsyncError: true},
	}}
	disk.SetDisabled(true)
	m := newManager(t, t.TempDir(), func(c *Config) {
		c.Hooks = Hooks{Append: disk.Append, Sync: disk.Sync, WriteFile: disk.WriteFile}
	})
	defer drain(t, m)
	st, _, err := m.Submit(parseSpec(t, testSpec), 1, "a")
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// The worker journals the first job's progress too; once it is done,
	// the next sync is the second submission's own.
	waitState(t, m, st.ID, StateDone)
	disk.SetDisabled(false)
	spec2 := parseSpec(t, strings.Replace(testSpec, "job-luby", "job-luby-2", 1))
	if _, _, err := m.Submit(spec2, 1, "a"); err == nil {
		t.Fatal("submit acknowledged over a failed fsync")
	}
	// The refused job does not exist.
	canonical, _ := json.Marshal(spec2)
	if _, err := m.Status(JobID(1, canonical)); err == nil {
		t.Fatal("failed submission left a job behind")
	}
}

// TestFailedJobReplaysToDuplicates: a deterministic failure is journaled and
// replayed to later duplicates — across restart too — without re-executing.
func TestFailedJobReplaysToDuplicates(t *testing.T) {
	dir := t.TempDir()
	spec := parseSpec(t, testSpec)
	exec := func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		return scenario.GraphInfo{}, nil, fmt.Errorf("%w: synthetic bad spec", serve.ErrSpec)
	}
	m := newManager(t, dir, func(c *Config) { c.Exec = exec })
	st, _, err := m.Submit(spec, 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, StateFailed)
	if !strings.Contains(fin.Error, "synthetic bad spec") {
		t.Fatalf("failure message lost: %+v", fin)
	}
	drain(t, m)

	var calls atomic.Int64
	m2 := newManager(t, dir, func(c *Config) { c.Exec = fakeExec(&calls) })
	defer drain(t, m2)
	st2, coalesced, err := m2.Submit(spec, 1, "b")
	if err != nil || !coalesced || st2.State != StateFailed {
		t.Fatalf("duplicate of failed job: %+v coalesced=%v err=%v", st2, coalesced, err)
	}
	if calls.Load() != 0 {
		t.Fatalf("deterministic failure re-executed %d times", calls.Load())
	}
}

// TestTransientRetry: non-terminal failures requeue until the budget is
// spent.
func TestTransientRetry(t *testing.T) {
	spec := parseSpec(t, testSpec)
	var calls atomic.Int64
	exec := func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		if calls.Add(1) <= 2 {
			return scenario.GraphInfo{}, nil, fmt.Errorf("synthetic transient failure")
		}
		return fakeExec(nil)(ctx, spec, seed, shard, onSlot)
	}
	m := newManager(t, t.TempDir(), func(c *Config) {
		c.Exec = exec
		c.Terminal = func(error) bool { return false }
		c.Retries = 3
	})
	defer drain(t, m)
	st, _, err := m.Submit(spec, 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
}

// TestRetryExhaustedJobRunsAgain: running out of transient retries says
// nothing about the spec, so unlike a deterministic failure the job is not
// poisoned: a resubmission runs it again, live and after a restart.
func TestRetryExhaustedJobRunsAgain(t *testing.T) {
	dir := t.TempDir()
	spec := parseSpec(t, testSpec)
	var broken atomic.Bool
	broken.Store(true)
	var calls atomic.Int64
	exec := func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		if broken.Load() {
			return scenario.GraphInfo{}, nil, fmt.Errorf("synthetic transient failure")
		}
		return fakeExec(&calls)(ctx, spec, seed, shard, onSlot)
	}
	cfg := func(c *Config) {
		c.Exec = exec
		c.Terminal = func(error) bool { return false }
		c.Retries = 1
	}
	exhaust := func(m *Manager, seed int64) string {
		t.Helper()
		st, _, err := m.Submit(spec, seed, "a")
		if err != nil {
			t.Fatal(err)
		}
		fin := waitState(t, m, st.ID, StateFailed)
		if !strings.Contains(fin.Error, "after 1 retries") {
			t.Fatalf("seed %d: not a retry exhaustion: %+v", seed, fin)
		}
		return st.ID
	}
	rerun := func(m *Manager, id string, seed int64) {
		t.Helper()
		before := calls.Load()
		st, coalesced, err := m.Submit(spec, seed, "a")
		if err != nil || coalesced || st.ID != id {
			t.Fatalf("seed %d: resubmission of an exhausted job: %+v coalesced=%v err=%v", seed, st, coalesced, err)
		}
		waitState(t, m, id, StateDone)
		if calls.Load() == before {
			t.Fatalf("seed %d: resubmitted job reached done without executing", seed)
		}
	}

	m := newManager(t, dir, cfg)
	live := exhaust(m, 1)
	restarted := exhaust(m, 2)
	broken.Store(false)
	rerun(m, live, 1)
	drain(t, m)

	m2 := newManager(t, dir, cfg)
	defer drain(t, m2)
	if st, err := m2.Status(restarted); err != nil || st.State != StateFailed {
		t.Fatalf("exhausted job after restart: %+v, %v", st, err)
	}
	rerun(m2, restarted, 2)
	if st, coalesced, err := m2.Submit(spec, 1, "a"); err != nil || !coalesced || st.State != StateDone {
		t.Fatalf("rerun job after restart: %+v coalesced=%v err=%v", st, coalesced, err)
	}
}
