package job

// HTTP surface tests for the async job API: submit/status/result round
// trips, SSE streaming to a terminal event, coalescing and cancellation
// status codes, quota responses with Retry-After, and drain refusal.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/fabric/faultinject"
	"github.com/unilocal/unilocal/internal/scenario"
)

func newTestAPI(t *testing.T, mut func(*Config)) (*API, *Manager) {
	t.Helper()
	m := newManager(t, t.TempDir(), mut)
	t.Cleanup(func() { drain(t, m) })
	return NewAPI(m, 1<<20, nil), m
}

func decodeSubmit(t *testing.T, res *http.Response) (Status, bool) {
	t.Helper()
	defer res.Body.Close()
	var out struct {
		Status
		Coalesced bool `json:"coalesced"`
	}
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return out.Status, out.Coalesced
}

func TestAPISubmitStatusResult(t *testing.T) {
	api, m := newTestAPI(t, nil)
	srv := httptest.NewServer(api)
	defer srv.Close()

	res, err := http.Post(srv.URL+"/jobs?seed=1", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("submit: %d %s", res.StatusCode, body)
	}
	st, coalesced := decodeSubmit(t, res)
	if coalesced || st.ID == "" {
		t.Fatalf("submit response: %+v coalesced=%v", st, coalesced)
	}
	waitState(t, m, st.ID, StateDone)

	res, err = http.Get(srv.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got.State != StateDone || got.SlotsDone != 4 {
		t.Fatalf("status: %+v", got)
	}

	res, err = http.Get(srv.URL + "/jobs/" + st.ID + "/result?format=md")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.Contains(string(body), "### job-luby") {
		t.Fatalf("result: %d\n%s", res.StatusCode, body)
	}

	// Duplicate coalesces with 200, and the list shows one job.
	res, err = http.Post(srv.URL+"/jobs?seed=1", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: %d", res.StatusCode)
	}
	if st2, coalesced := decodeSubmit(t, res); !coalesced || st2.ID != st.ID {
		t.Fatalf("duplicate: %+v coalesced=%v", st2, coalesced)
	}
	res, err = http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs    []Status `json:"jobs"`
		Metrics Metrics  `json:"metrics"`
	}
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(list.Jobs) != 1 || list.Metrics.Coalesced != 1 {
		t.Fatalf("list: %+v", list)
	}

	// Unknown IDs are 404 on every per-job route.
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/events"} {
		res, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, res.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/nope", nil)
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d, want 404", res.StatusCode)
	}

	// Bad specs are the client's fault.
	res, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"name": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d, want 400", res.StatusCode)
	}
	// So is a spec the executor's work bounds refuse.
	api, _ = newTestAPI(t, func(c *Config) {
		c.CheckSpec = func(*scenario.Spec) error { return errors.New("too big") }
	})
	srv2 := httptest.NewServer(api)
	defer srv2.Close()
	res, err = http.Post(srv2.URL+"/jobs", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("over the work bounds: %d, want 400", res.StatusCode)
	}
}

// TestAPIRefusalCostsNoToken: a submission refused as invalid commissions
// no work, so it must not drain the client's rate bucket — with Burst 1, the
// valid submission that follows still gets its token.
func TestAPIRefusalCostsNoToken(t *testing.T) {
	api, _ := newTestAPI(t, func(c *Config) {
		c.Rate = 1.0 / 60
		c.Burst = 1
		c.CheckSpec = func(s *scenario.Spec) error {
			if s.Name == "job-too-big" {
				return errors.New("too big")
			}
			return nil
		}
	})
	srv := httptest.NewServer(api)
	defer srv.Close()
	for _, tc := range []struct {
		spec string
		want int
	}{
		{strings.Replace(testSpec, "job-luby", "job-too-big", 1), http.StatusBadRequest},
		{testSpec, http.StatusAccepted},
	} {
		res, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != tc.want {
			t.Fatalf("submit: %d %s, want %d", res.StatusCode, body, tc.want)
		}
	}
}

// TestAPISubmitJournalFault: a submission the journal cannot make durable is
// the server's fault (500, retriable), not the client's, and leaves no job.
func TestAPISubmitJournalFault(t *testing.T) {
	disk := &faultinject.Disk{Seed: 7, Rules: []faultinject.DiskRule{
		{Match: faultinject.OpSync, Every: 1, FsyncError: true},
	}}
	api, m := newTestAPI(t, func(c *Config) {
		c.Hooks = Hooks{Append: disk.Append, Sync: disk.Sync, WriteFile: disk.WriteFile}
	})
	srv := httptest.NewServer(api)
	defer srv.Close()

	res, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit over a failed fsync: %d, want 500 (%s)", res.StatusCode, body)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("failed submission left jobs behind: %+v", jobs)
	}
}

func TestAPIEventsStream(t *testing.T) {
	api, _ := newTestAPI(t, func(c *Config) { c.ShardsPerJob = 2 })
	srv := httptest.NewServer(api)
	defer srv.Close()

	res, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := decodeSubmit(t, res)

	res, err = http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// The stream replays from the start (queued) and ends at the terminal
	// event; read until EOF and check the shape.
	var types []string
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			types = append(types, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(types) == 0 || types[len(types)-1] != EventDone {
		t.Fatalf("event stream %v does not end in done", types)
	}
	counts := map[string]int{}
	for _, ty := range types {
		counts[ty]++
	}
	if counts[EventShard] != 2 || counts[EventSlot] != 4 || counts[EventRunning] != 1 {
		t.Fatalf("event mix: %v", counts)
	}
}

func TestAPIResultNotReadyAndCancel(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, spec *scenario.Spec, seed int64, shard scenario.Shard, onSlot func(scenario.SlotOutcome)) (scenario.GraphInfo, []scenario.SlotOutcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return scenario.GraphInfo{}, nil, ctx.Err()
		}
		return fakeExec(nil)(ctx, spec, seed, shard, onSlot)
	}
	api, m := newTestAPI(t, func(c *Config) { c.Exec = blocking })
	defer close(release)
	srv := httptest.NewServer(api)
	defer srv.Close()

	res, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := decodeSubmit(t, res)

	// Result of an unfinished job: 409 with the status document.
	res, err = http.Get(srv.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var pending Status
	if err := json.NewDecoder(res.Body).Decode(&pending); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusConflict || pending.State == StateDone {
		t.Fatalf("pending result: %d %+v", res.StatusCode, pending)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled Status
	if err := json.NewDecoder(res.Body).Decode(&canceled); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || canceled.State != StateCanceled {
		t.Fatalf("cancel: %d %+v", res.StatusCode, canceled)
	}
	waitState(t, m, st.ID, StateCanceled)
}

func TestAPIQuota(t *testing.T) {
	// Burst 1, refill 1/min: the second submission from the same client is
	// rate-limited with a Retry-After hint; a distinct X-Client is not.
	api, _ := newTestAPI(t, func(c *Config) { c.Rate = 1.0 / 60; c.Burst = 1 })
	srv := httptest.NewServer(api)
	defer srv.Close()

	post := func(client, spec string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/jobs", strings.NewReader(spec))
		req.Header.Set("X-Client", client)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := post("alice", testSpec)
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", res.StatusCode)
	}
	res = post("alice", strings.Replace(testSpec, "job-luby", "job-luby-b", 1))
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %d, want 429", res.StatusCode)
	}
	if ra := res.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header %q", ra)
	}
	res = post("bob", strings.Replace(testSpec, "job-luby", "job-luby-c", 1))
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("other client: %d", res.StatusCode)
	}
}

func TestAPIDraining(t *testing.T) {
	drainingNow := false
	api, _ := newTestAPI(t, nil)
	api.draining = func() bool { return drainingNow }
	srv := httptest.NewServer(api)
	defer srv.Close()

	drainingNow = true
	res, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", res.StatusCode)
	}
}

func TestAPIBodyLimit(t *testing.T) {
	m := newManager(t, t.TempDir(), nil)
	t.Cleanup(func() { drain(t, m) })
	srv := httptest.NewServer(NewAPI(m, 64, nil))
	defer srv.Close()
	res, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(testSpec+strings.Repeat(" ", 100)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", res.StatusCode)
	}
}
