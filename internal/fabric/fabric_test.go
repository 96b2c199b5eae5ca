// Chaos tests for the distributed sweep fabric: byte-identity of the merged
// document against the single-process render path under clean conditions,
// under a deterministic fault schedule (drops, delays, 5xx, corruption,
// truncation), with a replica dying mid-sweep, and with the whole fleet
// gone. Run under -race in CI. Every test also asserts goroutine
// quiescence: the coordinator may not leak attempt, probe or handler
// goroutines no matter how the sweep ended.
package fabric_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unilocal/unilocal/internal/fabric"
	"github.com/unilocal/unilocal/internal/fabric/faultinject"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
	"github.com/unilocal/unilocal/internal/sweep"
)

func testSpecs() []*scenario.Spec {
	base := &scenario.AlgoSpec{Name: "nonuniform-mis-delta"}
	return []*scenario.Spec{
		{
			Name:      "fabric-mis",
			Graph:     scenario.GraphSpec{Family: "cycle", N: 96},
			IDs:       scenario.IDSpec{Regime: "dense", Seed: 5},
			Algorithm: scenario.AlgoSpec{Name: "uniform-mis-delta"},
			Baseline:  base,
			Seeds:     []int64{1, 2, 3},
			Repeat:    2,
		},
		{
			Name:      "fabric-luby",
			Graph:     scenario.GraphSpec{Family: "gnp", N: 64, P: 0.1},
			Algorithm: scenario.AlgoSpec{Name: "luby-mis"},
			Seeds:     []int64{4, 5},
		},
	}
}

// wantDocument renders the specs the single-process way — the byte sequence
// every distributed sweep must reproduce exactly.
func wantDocument(t *testing.T, specs []*scenario.Spec, seed int64) []byte {
	t.Helper()
	batch, err := scenario.Expand(specs, scenario.ExpandOptions{SeedOffset: seed - 1})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := sweep.Run(batch.Jobs, sweep.Options{})
	var buf bytes.Buffer
	if err := scenario.Render(&buf, batch, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func startReplicas(t *testing.T, n int, cfg serve.Config) ([]*httptest.Server, []string) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewServer(serve.New(cfg))
		urls[i] = servers[i].URL
	}
	return servers, urls
}

func closeAll(servers []*httptest.Server) {
	for _, ts := range servers {
		if ts != nil {
			ts.Close()
		}
	}
}

// checkGoroutines asserts the goroutine count settles back to (about) the
// pre-test level once every server is closed — the no-leak half of the
// chaos contract.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 { // tolerate runtime helpers
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSweepMatchesSingleProcess(t *testing.T) {
	specs := testSpecs()
	want := wantDocument(t, specs, 1)
	before := runtime.NumGoroutine()

	servers, urls := startReplicas(t, 3, serve.Config{Parallel: 2})
	c, err := fabric.New(fabric.Config{Endpoints: urls})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.Sweep(context.Background(), specs)
	closeAll(servers)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed document diverges:\n got: %s\nwant: %s", got, want)
	}
	// 3 shards of the 12-job spec plus 2 of the 2-job spec (the shard count
	// clamps to the grid so no empty shard ships).
	if stats.Tasks != 5 || stats.Attempts != 5 || stats.Retries != 0 || stats.Fallbacks != 0 {
		t.Fatalf("clean sweep stats off: %+v", stats)
	}
	checkGoroutines(t, before)
}

// TestSweepDeterministicUnderFaults is the headline chaos test: a seeded
// fault schedule injecting drops, delays, 503s, corrupted documents and
// truncated documents, and the merged output still byte-identical, with the
// retry volume bounded by MaxAttempts per task.
func TestSweepDeterministicUnderFaults(t *testing.T) {
	specs := testSpecs()
	want := wantDocument(t, specs, 1)
	before := runtime.NumGoroutine()

	servers, urls := startReplicas(t, 3, serve.Config{Parallel: 2})
	isRun := func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/run") }
	ft := &faultinject.Transport{
		Seed: 7,
		Rules: []faultinject.Rule{
			{Match: isRun, Prob: 0.15, Drop: true},
			{Match: isRun, Every: 6, Delay: 20 * time.Millisecond},
			{Match: isRun, Prob: 0.10, Status: http.StatusServiceUnavailable},
			{Match: isRun, Every: 7, Corrupt: true},
			{Match: isRun, Every: 9, Truncate: true},
		},
	}
	c, err := fabric.New(fabric.Config{
		Endpoints:        urls,
		Client:           &http.Client{Transport: ft},
		BaseBackoff:      2 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		FailureThreshold: 4,
		ProbeInterval:    10 * time.Millisecond,
		Fallback:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.Sweep(context.Background(), specs)
	closeAll(servers)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("document diverges under faults:\n got: %s\nwant: %s", got, want)
	}
	fs := ft.Stats()
	if fs.Drops+fs.Statuses+fs.Corrupts+fs.Truncates == 0 {
		t.Fatalf("fault schedule never fired: %+v", fs)
	}
	if stats.Retries > 4*stats.Tasks {
		t.Fatalf("retry storm: %+v over %d (MaxAttempts per task)", stats, 4*stats.Tasks)
	}
	t.Logf("faults: %+v; supervision: %+v", fs, stats)
	checkGoroutines(t, before)
}

// TestSweepReplicaDeathMidSweep kills one of three replicas after it has
// answered twice. Its remaining shards must be reassigned, the merged
// document must not change by a byte, and nothing may leak.
func TestSweepReplicaDeathMidSweep(t *testing.T) {
	specs := testSpecs()
	want := wantDocument(t, specs, 1)
	before := runtime.NumGoroutine()

	servers, urls := startReplicas(t, 3, serve.Config{Parallel: 1})
	var answered atomic.Int64
	var killed atomic.Bool
	victim := servers[0]
	victimHost := strings.TrimPrefix(victim.URL, "http://")
	kill := &countingTransport{onResponse: func(r *http.Request) {
		if r.Host == victimHost && answered.Add(1) == 2 && !killed.Swap(true) {
			victim.CloseClientConnections()
			victim.Close()
		}
	}}
	c, err := fabric.New(fabric.Config{
		Endpoints:        urls,
		Client:           &http.Client{Transport: kill},
		BaseBackoff:      2 * time.Millisecond,
		FailureThreshold: 2,
		ProbeInterval:    10 * time.Millisecond,
		Fallback:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.Sweep(context.Background(), specs)
	servers[0] = nil // already closed
	closeAll(servers)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Skip("victim never answered twice; sweep finished before the kill")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("document diverges after replica death:\n got: %s\nwant: %s", got, want)
	}
	t.Logf("supervision after death: %+v", stats)
	checkGoroutines(t, before)
}

// countingTransport calls onResponse after each successful round trip.
type countingTransport struct {
	onResponse func(*http.Request)
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && t.onResponse != nil {
		t.onResponse(req)
	}
	return resp, err
}

// TestSweepAllReplicasDownFallback points the coordinator at a fleet that
// is entirely gone: every shard must complete through in-process fallback,
// the output must be byte-identical, and the number of doomed HTTP attempts
// must stay bounded (no retry storm against dead sockets).
func TestSweepAllReplicasDownFallback(t *testing.T) {
	specs := testSpecs()[:1]
	want := wantDocument(t, specs, 1)
	before := runtime.NumGoroutine()

	// Real listeners, closed immediately: connection-refused territory.
	dead := make([]string, 2)
	for i := range dead {
		ts := httptest.NewServer(http.NotFoundHandler())
		dead[i] = ts.URL
		ts.Close()
	}
	c, err := fabric.New(fabric.Config{
		Endpoints:        dead,
		MaxAttempts:      2,
		BaseBackoff:      time.Millisecond,
		FailureThreshold: 2,
		ProbeInterval:    5 * time.Millisecond,
		Fallback:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fallback document diverges:\n got: %s\nwant: %s", got, want)
	}
	if stats.Fallbacks != stats.Tasks {
		t.Fatalf("want every task to fall back: %+v", stats)
	}
	if stats.Attempts > 4*stats.Tasks {
		t.Fatalf("retry storm against dead fleet: %+v", stats)
	}
	checkGoroutines(t, before)
}

// TestSweepRetriesPastAttemptTimeout pins the attempt deadline: one replica
// holds every /run request far longer than Config.Timeout, so its shard's
// attempt must expire and be retried on the other replica, over HTTP, with
// the merged document unchanged. A failure threshold of 1 opens the slow
// replica's breaker on the first expiry, so the retry cannot land on it
// again.
func TestSweepRetriesPastAttemptTimeout(t *testing.T) {
	specs := testSpecs()[:1]
	want := wantDocument(t, specs, 1)
	before := runtime.NumGoroutine()

	servers, urls := startReplicas(t, 2, serve.Config{Parallel: 1})
	slowHost := strings.TrimPrefix(servers[1].URL, "http://")
	ft := &faultinject.Transport{
		Rules: []faultinject.Rule{{
			Match: func(r *http.Request) bool {
				return r.Host == slowHost && strings.HasSuffix(r.URL.Path, "/run")
			},
			Every: 1,
			Delay: time.Minute,
		}},
	}
	c, err := fabric.New(fabric.Config{
		Endpoints:        urls,
		Shards:           2,
		Client:           &http.Client{Transport: ft},
		Timeout:          time.Second,
		BaseBackoff:      time.Millisecond,
		FailureThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, stats, err := c.Sweep(context.Background(), specs)
	elapsed := time.Since(start)
	closeAll(servers)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("sweep took %v: the 1s attempt timeout never fired", elapsed)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("document diverges after an attempt timeout:\n got: %s\nwant: %s", got, want)
	}
	if ft.Stats().Delays == 0 || stats.Retries < 1 || stats.Fallbacks != 0 {
		t.Fatalf("slow shard was not retried over HTTP: faults %+v, supervision %+v", ft.Stats(), stats)
	}
	if fast, slow := stats.Replicas[0], stats.Replicas[1]; fast.Successes != 2 || slow.Successes != 0 || slow.Failures < 1 {
		t.Fatalf("want both shards answered by the fast replica: %+v", stats.Replicas)
	}
	checkGoroutines(t, before)
}

// TestSweepTerminalErrorAborts pins the terminal/retriable split: a replica
// that deterministically refuses the request (per-shard work bound) must
// abort the sweep on the first answer, without retries and without
// fallback masking the client error.
func TestSweepTerminalErrorAborts(t *testing.T) {
	specs := testSpecs()[:1]
	servers, urls := startReplicas(t, 1, serve.Config{MaxJobs: 1})
	defer closeAll(servers)

	c, err := fabric.New(fabric.Config{Endpoints: urls, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.Sweep(context.Background(), specs)
	if !errors.Is(err, fabric.ErrTerminal) {
		t.Fatalf("err = %v, want ErrTerminal", err)
	}
	if stats.Retries != 0 {
		t.Fatalf("terminal error was retried: %+v", stats)
	}
}

// TestSweepExhaustionWithoutFallback: dead fleet, no fallback — the sweep
// must fail with ErrExhausted after a bounded number of attempts rather
// than hang.
func TestSweepExhaustionWithoutFallback(t *testing.T) {
	specs := testSpecs()[:1]
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	c, err := fabric.New(fabric.Config{
		Endpoints:        []string{url},
		Shards:           1,
		MaxAttempts:      2,
		BaseBackoff:      time.Millisecond,
		FailureThreshold: 100, // keep the breaker closed: exhaustion, not fallback, under test
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.Sweep(context.Background(), specs)
	if !errors.Is(err, fabric.ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if stats.Attempts > 2 {
		t.Fatalf("more attempts than MaxAttempts: %+v", stats)
	}
}

// TestSweepCancellation: canceling the context mid-sweep returns promptly
// with the context error and leaks nothing.
func TestSweepCancellation(t *testing.T) {
	specs := testSpecs()
	before := runtime.NumGoroutine()

	servers, urls := startReplicas(t, 2, serve.Config{Parallel: 1})
	ft := &faultinject.Transport{
		Rules: []faultinject.Rule{{Every: 1, Delay: 200 * time.Millisecond}},
	}
	c, err := fabric.New(fabric.Config{
		Endpoints: urls,
		Client:    &http.Client{Transport: ft},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = c.Sweep(ctx, specs)
	closeAll(servers)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v to unwind", elapsed)
	}
	checkGoroutines(t, before)
}

func TestNewRejectsUselessConfig(t *testing.T) {
	if _, err := fabric.New(fabric.Config{}); err == nil {
		t.Fatal("no endpoints, no fallback accepted")
	}
	if _, err := fabric.New(fabric.Config{Fallback: true}); err != nil {
		t.Fatalf("fallback-only config rejected: %v", err)
	}
	if _, err := fabric.New(fabric.Config{Endpoints: []string{"http://x"}, Shards: -1}); err == nil {
		t.Fatal("negative shards accepted")
	}
}

// TestSweepFallbackOnly pins the degenerate deployment: zero endpoints,
// fallback on — the fabric is then just a sharded in-process runner and
// must still reproduce the document.
func TestSweepFallbackOnly(t *testing.T) {
	specs := testSpecs()
	want := wantDocument(t, specs, 1)
	c, err := fabric.New(fabric.Config{Fallback: true, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fallback-only document diverges:\n got: %s\nwant: %s", got, want)
	}
	if stats.Fallbacks != stats.Tasks || stats.Attempts != 0 {
		t.Fatalf("fallback-only stats off: %+v", stats)
	}
}

// TestSweepSeedThreading: a non-default seed shifts the whole grid exactly
// like localbench -seed, distributed or not.
func TestSweepSeedThreading(t *testing.T) {
	specs := testSpecs()[:1]
	want := wantDocument(t, specs, 3)
	servers, urls := startReplicas(t, 2, serve.Config{})
	defer closeAll(servers)
	c, err := fabric.New(fabric.Config{Endpoints: urls, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("seed=3 document diverges:\n got: %s\nwant: %s", got, want)
	}
	if bytes.Equal(got, wantDocument(t, specs, 1)) {
		t.Fatal("seed had no effect")
	}
}
