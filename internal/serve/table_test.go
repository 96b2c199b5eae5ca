package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestServeSingleFlightCoalesces: N concurrent POSTs of the same spec must
// cause exactly one execution. The only execution slot is occupied before
// the clients fire, so every request finds the execution pending before the
// leader can run: one request leads (and queues for admission), the rest
// wait on it. Releasing the slot lets the leader execute once and settle
// the outcome for everyone.
func TestServeSingleFlightCoalesces(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	s := New(Config{MaxInFlight: 1, QueueDepth: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.sem <- struct{}{} // hold the only slot until all clients have joined

	const clients = 8
	bodies := make([][]byte, clients)
	cacheHdr := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postSpec(t, ts.Client(), ts.URL+"/run", req)
			bodies[i], cacheHdr[i] = body, resp.Header.Get("X-Localserved-Cache")
		}(i)
	}

	// Wait until every client is inside the handler (the gap between the
	// request counter and the table lookup is pure in-memory parsing), then
	// release the slot and let the leader run.
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().RequestsTotal < clients {
		if time.Now().After(deadline) {
			t.Fatal("clients never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	<-s.sem
	wg.Wait()

	miss, coalesced := 0, 0
	for i := 0; i < clients; i++ {
		switch cacheHdr[i] {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("client %d: cache header %q", i, cacheHdr[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}
	if miss != 1 || coalesced != clients-1 {
		t.Fatalf("%d misses and %d coalesced responses, want 1 and %d", miss, coalesced, clients-1)
	}

	m := s.Snapshot()
	// The golden spec expands to 2 jobs (baseline + uniform, one seed): a
	// single execution means the job counter saw exactly one batch.
	if m.Jobs != 2 {
		t.Fatalf("jobs counter = %d, want 2 (one execution)", m.Jobs)
	}
	if m.ResponsesCoalesced != clients-1 {
		t.Fatalf("coalesced counter = %d, want %d", m.ResponsesCoalesced, clients-1)
	}
}

// settleKey acquires key and, when it leads, settles a 200 outcome.
func settleKey(t *testing.T, tab *execTable, key string) string {
	t.Helper()
	e, how, err := tab.acquire(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if how == cacheMiss {
		e.status = http.StatusOK
		tab.finish(e)
	}
	return how
}

// TestTableTransientOutcomeLeavesNoEntry: a leader that finishes without a
// settled outcome (429, 499, 504, 5xx) removes its entry, and of the
// requests waiting on it exactly one leads the rerun.
func TestTableTransientOutcomeLeavesNoEntry(t *testing.T) {
	tab := newExecTable()
	e, how, _ := tab.acquire(context.Background(), "k")
	if how != cacheMiss {
		t.Fatalf("first lookup: %q, want miss", how)
	}
	tab.finish(e)
	if _, ok := tab.entries["k"]; ok {
		t.Fatal("transient outcome left an entry")
	}

	first, _, _ := tab.acquire(context.Background(), "k")
	const waiters = 8
	hows := make([]string, waiters)
	var wg sync.WaitGroup
	for i := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, how, err := tab.acquire(context.Background(), "k")
			if err != nil {
				t.Error(err)
				return
			}
			hows[i] = how
			if how == cacheMiss {
				e.status = http.StatusOK
				tab.finish(e)
			}
			if e == first || e.status != http.StatusOK {
				t.Errorf("waiter %d answered from the unsettled execution", i)
			}
		}()
	}
	// Every lookup that finds no settled entry counts a miss: two so far,
	// then one per waiter once it is waiting on first.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, misses, _ := tab.stats(); misses == 2+waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never looked up the pending execution")
		}
		time.Sleep(time.Millisecond)
	}
	tab.finish(first)
	wg.Wait()

	leaders := 0
	for _, how := range hows {
		if how == cacheMiss {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d waiters led the rerun, want 1 (%v)", leaders, hows)
	}
	if _, _, settled := tab.stats(); settled != 1 {
		t.Fatalf("%d settled executions, want 1", settled)
	}
}

// TestTableReplaysDeterministicError: a 422 (max_rounds expired) settles,
// and a later identical request replays it without expanding the spec
// again.
func TestTableReplaysDeterministicError(t *testing.T) {
	req := []byte(`{"name":"short","graph":{"family":"cycle","n":256},"ids":{"regime":"dense","seed":3},"algorithm":{"name":"uniform-mis-delta"},"max_rounds":4}`)
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, first := postSpec(t, ts.Client(), ts.URL+"/run", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, first)
	}
	before := s.Snapshot().Corpus
	resp, second := postSpec(t, ts.Client(), ts.URL+"/run", req)
	if resp.StatusCode != http.StatusUnprocessableEntity || !bytes.Equal(first, second) {
		t.Fatalf("replay: status %d body %q, want 422 %q", resp.StatusCode, second, first)
	}
	m := s.Snapshot()
	if m.Corpus.Hits != before.Hits || m.Corpus.Misses != before.Misses {
		t.Fatal("the replayed request expanded the spec again")
	}
	if m.Cache.Hits != 1 || m.ResponsesCached != 1 || m.BadRequests != 2 || m.Failed != 0 {
		t.Fatalf("metrics off: %+v", m)
	}
}

// TestTableOneExecutionServesBothFormats: md and then json for one
// (spec, seed) run the batch once.
func TestTableOneExecutionServesBothFormats(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range []struct{ format, how string }{{"md", cacheMiss}, {"json", cacheHit}} {
		resp, body := postSpec(t, ts.Client(), ts.URL+"/run?format="+tc.format, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.format, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Localserved-Cache"); got != tc.how {
			t.Fatalf("%s: cache header %q, want %q", tc.format, got, tc.how)
		}
	}
	// The golden spec expands to 2 jobs: one execution.
	if m := s.Snapshot(); m.Jobs != 2 || m.Cache.Entries != 1 {
		t.Fatalf("jobs = %d, entries = %d, want 2 and 1", m.Jobs, m.Cache.Entries)
	}
}

// TestTableEvictsLeastRecentlyUsed: the table keeps tableSize settled
// executions; the next one evicts the least recently used, and a hit
// refreshes recency.
func TestTableEvictsLeastRecentlyUsed(t *testing.T) {
	tab := newExecTable()
	key := func(i int) string { return fmt.Sprint("k", i) }
	for i := range tableSize {
		if how := settleKey(t, tab, key(i)); how != cacheMiss {
			t.Fatalf("%s: %q, want miss", key(i), how)
		}
	}
	if how := settleKey(t, tab, key(0)); how != cacheHit {
		t.Fatalf("k0 before eviction: %q, want hit", how)
	}
	settleKey(t, tab, key(tableSize))
	if _, _, settled := tab.stats(); settled != tableSize {
		t.Fatalf("%d settled executions, want %d", settled, tableSize)
	}
	if how := settleKey(t, tab, key(1)); how != cacheMiss {
		t.Fatalf("k1, the least recently used: %q, want miss (evicted)", how)
	}
	if how := settleKey(t, tab, key(0)); how != cacheHit {
		t.Fatalf("k0, refreshed by its hit: %q, want hit", how)
	}
}
