package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
)

// serveMix is the serve workload's request mix: cheap-to-moderate specs, no
// matching, so the serving layer rather than the engine dominates.
var serveMix = []string{
	"mis-delta-cycle-dense",
	"mis-id-gnp-dense",
	"deg-coloring-hypercube-dense",
	"rulingset-smallworld",
	"mis-delta-smallworld",
	"luby-ba-seeds",
}

// Shares of the measuring time: the open-loop phase, which drives the
// counters and the oracles, then the closed-loop phase the end-to-end
// metrics come from, sized from the workload's capacity on a two-CPU
// machine. The closed loop gets the larger share: the longer it runs, the
// less a slow stretch of a shared machine moves its medians.
const (
	openShare   = 0.35
	closedShare = 0.55
)

// serveCapacity is about the serve workload's closed-loop capacity
// (requests/s) on a two-CPU machine; it sizes the closed loop.
const serveCapacity = 30

// oracleSamples is how many distinct requests per run are diffed against
// localbench.
const oracleSamples = 3

// loadMix reads the bodies of the named spec copies.
func (b *bench) loadMix(names []string) ([][]byte, error) {
	bodies := make([][]byte, len(names))
	for i, n := range names {
		data, err := os.ReadFile(filepath.Join(b.specs, "scenarios", n+".json"))
		if err != nil {
			return nil, err
		}
		bodies[i] = data
	}
	return bodies, nil
}

// sameBodies checks that every response for one key is byte-identical to
// the first.
type sameBodies struct {
	mu    sync.Mutex
	first map[string][]byte
}

// check records body under key and reports whether it equals the first
// body seen for key.
func (s *sameBodies) check(key string, body []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.first == nil {
		s.first = make(map[string][]byte)
	}
	prev, ok := s.first[key]
	if !ok {
		s.first[key] = body
		return true
	}
	return bytes.Equal(prev, body)
}

func (s *sameBodies) get(key string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first[key]
}

func serveKey(a arrival) string {
	return fmt.Sprintf("%s/seed=%d/%s", serveMix[a.Spec], a.Seed, a.Format)
}

// runServe is the open-loop serving workload: Poisson POST /run at the
// pinned rate, then a closed loop with one client per CPU.
func runServe(b *bench) error {
	bodies, err := b.loadMix(serveMix)
	if err != nil {
		return err
	}
	start := func() ([]*proc, error) {
		p, err := b.startServer()
		return []*proc{p}, err
	}
	procs, before, err := b.launch(setupBefore, start)
	if err != nil {
		return err
	}
	srv := procs[0]
	rate := *flagServeRate
	closedN := int(closedShare * b.seconds.Seconds() * serveCapacity)
	open, closed := serveSchedule(b.seed, rate, time.Duration(openShare*float64(b.seconds)), closedN, len(serveMix))
	c := newClient(b.conns)
	var seen sameBodies
	send := func(a arrival) error {
		url := fmt.Sprintf("%s/run?seed=%d&format=%s", srv.url, a.Seed, a.Format)
		resp, body, err := do(b.ctx, c, http.MethodPost, url, bodies[a.Spec], nil)
		if err != nil {
			return err
		}
		if err := errStatus("POST /run", resp, body); err != nil {
			return err
		}
		if !seen.check(serveKey(a), body) {
			b.rep.mismatch("two responses for %s differ", serveKey(a))
		}
		return nil
	}

	var queued []float64
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if !b.trace {
			return
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
			}
			var m serve.Metrics
			if err := getJSON(b, c, srv.url+"/metrics", &m); err == nil {
				queued = append(queued, float64(m.Queued))
			}
		}
	}()
	dues := make([]time.Duration, len(open))
	for i, a := range open {
		dues[i] = a.Due
	}
	outs := openLoop(b.ctx, dues, func(i int) error { return send(open[i]) })
	close(stopSampling)
	<-sampled
	closedLat, closedErrs, closedWall := closedLoop(b.ctx, len(closed), b.conns, func(i int) error { return send(closed[i]) })

	var late, openLat []float64
	for _, o := range outs {
		b.rep.op(o.Err)
		late = append(late, float64(o.Late)/float64(time.Millisecond))
		if o.Err == nil {
			openLat = append(openLat, float64(o.Latency)/float64(time.Millisecond))
		}
	}
	var lat []time.Duration
	for i, d := range closedLat {
		b.rep.op(closedErrs[i])
		if closedErrs[i] == nil {
			lat = append(lat, d)
		}
	}
	var m serve.Metrics
	if b.trace {
		if err := getJSON(b, c, srv.url+"/metrics", &m); err != nil {
			return err
		}
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if err := b.checkSamples(open, seen.get, func(a arrival) (string, bool) {
		return serveKey(a), a.Format == "md"
	}, serveMix); err != nil {
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
		// Latency percentiles come from the closed loop, as on jobs. In the
		// open loop a slow request either ran alone or overlapped another
		// and took twice as long, the requests near a percentile's rank
		// flipped between the two from run to run, and ten seeds spread
		// p50_ms by 0.32 of its median and p85_ms by 0.40 while the closed
		// loop's throughput spread by 0.16.
		ms := durationsMs(lat)
		r.set("p50_ms", "ms", quantile(ms, 0.5))
		r.set("p85_ms", "ms", quantile(ms, tailQuantile))
		r.set("capacity_rps", "1/s", float64(len(lat))/closedWall.Seconds())
		r.set("max_rss_mb", "MB", float64(srv.maxRSS)/1024)
		return nil
	}
	r := b.rep
	r.set("graph.corpus_hit_ratio", "ratio", ratio(m.Corpus.Hits, m.Corpus.Hits+m.Corpus.Misses))
	r.set("serve.cache_hit_ratio", "ratio", ratio(m.Cache.Hits, m.Cache.Hits+m.Cache.Misses))
	r.set("serve.coalesced_frac", "ratio", ratio(m.ResponsesCoalesced, m.RequestsTotal))
	r.set("serve.rejected", "count", float64(m.Rejected))
	r.set("serve.queued_mean", "count", mean(queued))
	r.set("serve.open_p50_ms", "ms", quantile(openLat, 0.5))
	r.set("serve.open_p85_ms", "ms", quantile(openLat, tailQuantile))
	r.set("loadgen.late_p95_ms", "ms", quantile(late, 0.95))
	return b.traceServe(bodies, open, &seen)
}

// checkSamples diffs the documents of the first oracleSamples distinct
// markdown requests of the schedule against localbench's.
func (b *bench) checkSamples(sched []arrival, got func(string) []byte, key func(arrival) (string, bool), mix []string) error {
	done := make(map[string]bool)
	for _, a := range sched {
		k, ok := key(a)
		if !ok || done[k] || len(done) == oracleSamples {
			continue
		}
		body := got(k)
		if body == nil {
			continue
		}
		done[k] = true
		want, err := b.expectedDoc(mix[a.Spec], a.Seed)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want) {
			b.rep.mismatch("%s differs from localbench -exp %s -seed %d", k, mix[a.Spec], a.Seed)
		}
	}
	return nil
}

// serveTraceSample is how many cache misses the traced serve replay also
// runs through the handler's exported calls.
const serveTraceSample = 24

// traceServe replays the open-loop requests in-process and sequentially
// through the real handler (serve.Server.ServeHTTP), timing each one; its
// time on cache hits — parse, canonicalization, lookup and write, no
// execution — is the handler's own overhead. The handler spans have no
// children and belong to no layer, so the work they hide stays out of the
// per-layer self times. The first serveTraceSample misses are replayed a
// second time, right after the handler served them, through the exported
// calls the handler makes on a miss — parse, canonicalization, execution
// and encoding — and those spans alone make up the layer self times.
func (b *bench) traceServe(bodies [][]byte, sched []arrival, seen *sameBodies) error {
	replay := func(tr *tracer) (*replayer, time.Duration, error) {
		rp := newReplayer(tr)
		var err error
		var hitTime time.Duration
		hits, sampled := 0, 0
		t0 := time.Now()
		tr.do("replay", func() {
			srv := serve.New(serve.Config{Parallel: 1, EngineWorkers: 1})
			c := graph.NewBoundedCorpus(serve.DefaultCorpusLimit)
			for _, a := range sched {
				req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/run?seed=%d&format=%s", a.Seed, a.Format), bytes.NewReader(bodies[a.Spec]))
				rec := httptest.NewRecorder()
				start := time.Now()
				tr.do("handler", func() { srv.ServeHTTP(rec, req) })
				d := time.Since(start)
				if rec.Code != http.StatusOK {
					err = fmt.Errorf("in-process %s: HTTP %d", serveKey(a), rec.Code)
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), seen.get(serveKey(a))) {
					b.rep.mismatch("in-process handler response for %s differs from the served one", serveKey(a))
				}
				if rec.Header().Get("X-Localserved-Cache") == "hit" {
					hits++
					hitTime += d
				}
				if rec.Header().Get("X-Localserved-Cache") != "miss" || sampled == serveTraceSample {
					continue
				}
				sampled++
				if err = b.replayMiss(rp, c, bodies[a.Spec], a, seen); err != nil {
					return
				}
			}
		})
		if err == nil && tr.on && hits > 0 {
			b.rep.set("serve.handler_overhead_ms", "ms", float64(hitTime)/float64(time.Millisecond)/float64(hits))
		}
		return rp, time.Since(t0), err
	}
	return b.traceReplay(replay)
}

// replayMiss runs one request the way the handler's leader path does.
func (b *bench) replayMiss(rp *replayer, c *graph.Corpus, body []byte, a arrival, seen *sameBodies) error {
	tr := rp.tr
	spec, err := rp.parse(body)
	if err != nil {
		return err
	}
	tr.do("serve.canonical", func() { _, err = json.Marshal(spec) })
	if err != nil {
		return err
	}
	var out *serve.Outcome
	tr.do("serve.exec", func() { out, err = rp.execute([]*scenario.Spec{spec}, c, a.Seed-1) })
	if err != nil {
		return err
	}
	var data []byte
	tr.do("serve.encode", func() {
		var doc any
		if doc, err = serve.DeterministicDoc(out, a.Seed); err == nil {
			data, err = json.MarshalIndent(doc, "", "  ")
		}
	})
	if err != nil {
		return err
	}
	got := out.Markdown
	if a.Format == "json" {
		got = append(data, '\n')
	}
	if !bytes.Equal(got, seen.get(serveKey(a))) {
		b.rep.mismatch("in-process execution of %s differs from the served response", serveKey(a))
	}
	return nil
}

// getJSON fetches and decodes one JSON document.
func getJSON(b *bench, c *http.Client, url string, v any) error {
	resp, body, err := do(b.ctx, c, http.MethodGet, url, nil, nil)
	if err != nil {
		return err
	}
	if err := errStatus("GET "+url, resp, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
