package serve

// One admission for every execution: job shards take the same execution
// slots /run does, wait for one without a bound, and give up waiting when
// the server drains.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/unilocal/unilocal/internal/job"
	"github.com/unilocal/unilocal/internal/scenario"
)

// holdSlot starts a job shard execution on s that parks inside its first
// completed slot, so it holds an execution slot until release is called.
// release waits for the execution to finish and fails the test if it did
// not succeed.
func holdSlot(t *testing.T, s *Server, spec *scenario.Spec) (release func()) {
	t.Helper()
	holding, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, _, err := s.ShardExecutor()(context.Background(), spec, 1, scenario.Shard{Index: 0, Count: 1}, func(scenario.SlotOutcome) {
			once.Do(func() {
				close(holding)
				<-unblock
			})
		})
		done <- err
	}()
	select {
	case <-holding:
	case err := <-done:
		t.Fatalf("holding execution ended early: %v", err)
	}
	return func() {
		close(unblock)
		if err := <-done; err != nil {
			t.Errorf("holding execution: %v", err)
		}
	}
}

// TestServeJobShardTakesTheSlot: with one slot and no queue, a /run that
// arrives while a job shard executes is refused with 429, and served once
// the shard releases the slot.
func TestServeJobShardTakesTheSlot(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	spec, err := scenario.Parse(req)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxInFlight: 1, QueueDepth: -1, Parallel: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	release := holdSlot(t, s, spec)
	if m := s.Snapshot(); m.InFlight != 1 {
		t.Fatalf("in_flight = %d while a job shard executes, want 1", m.InFlight)
	}
	resp, body := postSpec(t, ts.Client(), ts.URL+"/run", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("/run while a job shard holds the only slot: %d %s, want 429", resp.StatusCode, body)
	}
	release()
	resp, body = postSpec(t, ts.Client(), ts.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run after the shard released its slot: %d %s", resp.StatusCode, body)
	}
}

// TestServeDrainReleasesWaitingJobWorker: a job worker waiting for a slot
// that another execution holds does not hold up the drain. Drain returns
// at once, the job stays queued, and the next process runs it.
func TestServeDrainReleasesWaitingJobWorker(t *testing.T) {
	spec, err := scenario.Parse(readTestdata(t, "mis_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxInFlight: 1, Parallel: 1})
	dir := t.TempDir()
	open := func(s *Server) *job.Manager {
		m, err := job.New(job.Config{Dir: dir, Exec: s.ShardExecutor(), Terminal: TerminalError, Workers: s.MaxInFlight(), Rate: -1})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	waitState := func(m *job.Manager, id, want string) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			st, err := m.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job stuck in %q, want %q", st.State, want)
			}
		}
	}

	release := holdSlot(t, s, spec)
	m := open(s)
	st, _, err := m.Submit(spec, 2, "t")
	if err != nil {
		t.Fatal(err)
	}
	waitState(m, st.ID, job.StateRunning)

	s.StartDrain()
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("Drain still waits for a job worker blocked on an execution slot")
	}
	if got, err := m.Status(st.ID); err != nil || got.State != job.StateQueued {
		t.Fatalf("job after drain: %+v, %v; want queued", got, err)
	}
	release()
	if in := s.Snapshot().InFlight; in != 0 {
		t.Fatalf("in_flight = %d after the holder finished", in)
	}

	m2 := open(New(Config{MaxInFlight: 1, Parallel: 1}))
	defer m2.Drain(context.Background())
	waitState(m2, st.ID, job.StateDone)
}
