package serve

// Serving-layer tests: golden request/response files, the byte-identity
// contract between served responses and the localbench render path, cache
// and admission behaviour, drain, and the ≥64-request concurrent load test
// with mid-batch client disconnects (run under -race in CI) that must leave
// no goroutine behind.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unilocal/unilocal/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files from live output")

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postSpec(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestServeGoldenResponses pins the served markdown and JSON bodies for the
// committed request file. Regenerate with: go test ./internal/serve -update
func TestServeGoldenResponses(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	for _, tc := range []struct {
		format, golden string
	}{
		{"md", "mis_response.md"},
		{"json", "mis_response.json"},
	} {
		resp, body := postSpec(t, ts.Client(), ts.URL+"/run?format="+tc.format, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.format, resp.StatusCode, body)
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want := readTestdata(t, tc.golden)
		if !bytes.Equal(body, want) {
			t.Errorf("%s response diverges from %s:\n got: %s\nwant: %s", tc.format, tc.golden, body, want)
		}
	}
}

// TestServeByteIdenticalAcrossParallelism is the acceptance invariant: the
// served body equals the localbench render path's output for the same spec,
// whatever Parallel/EngineWorkers either side uses, and whatever seed shifts
// the grid.
func TestServeByteIdenticalAcrossParallelism(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	spec, err := scenario.Parse(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 5} {
		// The reference: what cmd/localbench -scenarios -seed prints.
		ref, err := Execute([]*scenario.Spec{spec}, ExecOptions{SeedOffset: seed - 1, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{Parallel: 1, EngineWorkers: 1},
			{Parallel: 4},
			{Parallel: 2, EngineWorkers: 3, CorpusLimit: 2},
		} {
			ts := httptest.NewServer(New(cfg))
			url := fmt.Sprintf("%s/run?seed=%d", ts.URL, seed)
			resp, body := postSpec(t, ts.Client(), url, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cfg %+v: status %d: %s", cfg, resp.StatusCode, body)
			}
			if !bytes.Equal(body, ref.Markdown) {
				t.Errorf("cfg %+v seed %d: served body diverges from render path", cfg, seed)
			}
			ts.Close()
		}
	}
}

// TestServeCache checks the keyed response cache: a repeated request is
// served from memory (hit header, cached counter) with identical bytes, and
// a different seed or format is a distinct key.
func TestServeCache(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp1, body1 := postSpec(t, ts.Client(), ts.URL+"/run", req)
	if got := resp1.Header.Get("X-Localserved-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	resp2, body2 := postSpec(t, ts.Client(), ts.URL+"/run", req)
	if got := resp2.Header.Get("X-Localserved-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached body differs from computed body")
	}
	// A different seed is a distinct key and re-executes.
	resp3, _ := postSpec(t, ts.Client(), ts.URL+"/run?seed=2", req)
	if got := resp3.Header.Get("X-Localserved-Cache"); got != "miss" {
		t.Fatal("distinct seed served from cache")
	}
	// The other format of an already-executed (spec, seed) is served from
	// the cache: one execution fills both format entries.
	resp4, jsonBody := postSpec(t, ts.Client(), ts.URL+"/run?format=json", req)
	if got := resp4.Header.Get("X-Localserved-Cache"); got != "hit" {
		t.Fatalf("json format after md execution missed: %q", got)
	}
	if !bytes.Contains(jsonBody, []byte(`"generated_by": "cmd/localserved"`)) {
		t.Fatalf("json body malformed:\n%s", jsonBody)
	}
	// Whitespace-insensitive keying: a reformatted body of the same spec hits.
	reformatted := append(bytes.TrimSpace(req), '\n', '\n')
	resp5, _ := postSpec(t, ts.Client(), ts.URL+"/run", reformatted)
	if got := resp5.Header.Get("X-Localserved-Cache"); got != "hit" {
		t.Fatalf("canonicalized key missed: %q", got)
	}
	m := s.Snapshot()
	if m.ResponsesCached != 3 || m.Cache.Hits != 3 || m.Cache.Misses != 2 {
		t.Fatalf("cache metrics off: %+v", m)
	}
}

// TestServeBadRequests table-drives the 4xx surface.
func TestServeBadRequests(t *testing.T) {
	good := readTestdata(t, "mis_request.json")
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 4096}))
	defer ts.Close()

	for _, tc := range []struct {
		name, url, body string
		want            int
	}{
		{"malformed json", "/run", "{not json", http.StatusBadRequest},
		{"unknown field", "/run", `{"name":"x","graph":{"family":"cycle","n":64},"algorithm":{"name":"luby-mis"},"typo_field":1}`, http.StatusBadRequest},
		{"unknown algorithm", "/run", `{"name":"x","graph":{"family":"cycle","n":64},"algorithm":{"name":"no-such-algo"}}`, http.StatusBadRequest},
		{"bad family params", "/run", `{"name":"x","graph":{"family":"cycle","n":1},"algorithm":{"name":"luby-mis"}}`, http.StatusBadRequest},
		{"bad seed", "/run?seed=abc", string(good), http.StatusBadRequest},
		{"bad format", "/run?format=xml", string(good), http.StatusBadRequest},
		{"oversized body", "/run", string(good) + strings.Repeat(" ", 5000), http.StatusRequestEntityTooLarge},
	} {
		resp, body := postSpec(t, ts.Client(), ts.URL+tc.url, []byte(tc.body))
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	// Wrong method on /run.
	resp, err := ts.Client().Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
}

// TestServeRequestLimits checks the per-request work bounds: a spec that
// would commission a huge graph or an enormous job grid is refused with 400
// before anything is built, and a client-chosen max_rounds the algorithm
// outlives is a 422, not a 500.
func TestServeRequestLimits(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		want       int
		errSubstr  string
	}{
		{
			name: "too many nodes",
			body: `{"name":"big","graph":{"family":"gnp","n":100000000,"p":0.0000001,"seed":1},"algorithm":{"name":"luby-mis"}}`,
			want: http.StatusBadRequest, errSubstr: "per-request limit",
		},
		{
			name: "quadratic family over the edge bound",
			body: `{"name":"dense","graph":{"family":"clique","n":50000},"algorithm":{"name":"luby-mis"}}`,
			want: http.StatusBadRequest, errSubstr: "edges exceeds",
		},
		{
			name: "job grid explosion",
			body: `{"name":"grid","graph":{"family":"cycle","n":64},"algorithm":{"name":"luby-mis"},"seeds":[1,2,3,4,5,6,7,8,9,10],"repeat":1000}`,
			want: http.StatusBadRequest, errSubstr: "jobs",
		},
		{
			name: "node estimate must saturate, not wrap, past MaxInt",
			body: `{"name":"wrap1","graph":{"family":"grid","rows":3037000500,"cols":3037000500},"algorithm":{"name":"luby-mis"}}`,
			want: http.StatusBadRequest, errSubstr: "per-request limit",
		},
		{
			name: "job count must saturate, not wrap, past MaxInt",
			body: `{"name":"wrap2","graph":{"family":"cycle","n":64},"algorithm":{"name":"uniform-mis-delta"},"baseline":{"name":"nonuniform-mis-delta"},"repeat":4611686018427387904}`,
			want: http.StatusBadRequest, errSubstr: "jobs",
		},
		{
			name: "max_rounds the algorithm outlives is the client's doing",
			body: `{"name":"short","graph":{"family":"cycle","n":256},"ids":{"regime":"dense","seed":3},"algorithm":{"name":"uniform-mis-delta"},"max_rounds":4}`,
			want: http.StatusUnprocessableEntity, errSubstr: "max rounds exceeded",
		},
	} {
		resp, body := postSpec(t, ts.Client(), ts.URL+"/run", []byte(tc.body))
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		if !strings.Contains(string(body), tc.errSubstr) {
			t.Errorf("%s: body missing %q:\n%s", tc.name, tc.errSubstr, body)
		}
	}
	// Client-induced problems never count as server failures.
	if m := ts.Config.Handler.(*Server).Snapshot(); m.Failed != 0 {
		t.Fatalf("failed counter = %d after client errors", m.Failed)
	}
}

// TestServeHealthzAndDrain checks the drain contract: healthz flips to 503,
// new work is refused.
func TestServeHealthzAndDrain(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	runResp, _ := postSpec(t, ts.Client(), ts.URL+"/run", req)
	if runResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /run = %d, want 503", runResp.StatusCode)
	}
}

// TestServeAdmissionOverflow fills the only execution slot and the (empty)
// queue, then checks the 429 overflow path.
func TestServeAdmissionOverflow(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	s := New(Config{MaxInFlight: 1, QueueDepth: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.sem <- struct{}{} // occupy the only slot
	resp, _ := postSpec(t, ts.Client(), ts.URL+"/run", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	<-s.sem
	resp, body := postSpec(t, ts.Client(), ts.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	if m := s.Snapshot(); m.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", m.Rejected)
	}
}

// TestServeConcurrentLoadWithCancellation is the acceptance load test: 64
// concurrent requests, a third of them disconnecting mid-batch, under -race
// in CI. All surviving responses for the same key must be byte-identical,
// and once the dust settles no goroutine may be left behind (engine worker
// pools, sweep workers and handler goroutines all drain).
func TestServeConcurrentLoadWithCancellation(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	before := runtime.NumGoroutine()

	s := New(Config{Parallel: 2, MaxInFlight: 4, QueueDepth: 128, CorpusLimit: 8})
	ts := httptest.NewServer(s)

	const clients = 64
	bodies := make([][]byte, clients)
	status := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Four distinct seeds so the response cache cannot collapse the
			// load, while same-seed requests must agree byte-for-byte.
			url := fmt.Sprintf("%s/run?seed=%d", ts.URL, 1+i%4)
			ctx := context.Background()
			if i%3 == 0 {
				// A third of the clients hang up mid-batch.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(500+i*200)*time.Microsecond)
				defer cancel()
			}
			hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(req))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := ts.Client().Do(hr)
			if err != nil {
				status[i] = -1 // disconnected client: transport error is expected
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				status[i] = -1
				return
			}
			status[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	wg.Wait()

	okBySeed := map[int][]byte{}
	completed := 0
	for i := 0; i < clients; i++ {
		switch status[i] {
		case http.StatusOK:
			completed++
			seed := 1 + i%4
			if prev, ok := okBySeed[seed]; ok {
				if !bytes.Equal(prev, bodies[i]) {
					t.Fatalf("two 200 responses for seed %d differ", seed)
				}
			} else {
				okBySeed[seed] = bodies[i]
			}
		case -1, statusClientClosedRequest, http.StatusGatewayTimeout, http.StatusTooManyRequests:
			// Disconnected, canceled or shed — all fine under load.
		default:
			t.Fatalf("client %d: unexpected status %d: %s", i, status[i], bodies[i])
		}
	}
	if completed == 0 {
		t.Fatal("no client completed")
	}
	// A client that hangs up early may never reach the handler, so the
	// request counter is bounded, not exact.
	m := s.Snapshot()
	if m.RequestsTotal < uint64(completed) || m.RequestsTotal > clients {
		t.Fatalf("requests_total = %d, want within [%d, %d]", m.RequestsTotal, completed, clients)
	}

	ts.CloseClientConnections()
	ts.Close()
	// Goroutine quiescence: poll until the count returns to the baseline
	// (plus slack for runtime helpers that linger).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Fatalf("in_flight = %d after quiescence", got)
	}
	if got := s.queued.Load(); got != 0 {
		t.Fatalf("queued = %d after quiescence", got)
	}
}
