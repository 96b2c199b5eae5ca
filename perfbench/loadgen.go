package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled operation of a workload: when it is due (from
// the start of the open-loop phase; zero in a closed loop) and what it
// sends.
type arrival struct {
	Due    time.Duration
	Spec   int    // index into the workload's spec mix
	Seed   int64  // the request's ?seed=
	Format string // serve: "md" or "json"
	Client int    // jobs: X-Client identity index
	Dup    int    // jobs: index of the earlier arrival this one repeats, or -1
}

// poissonDues returns the due times of a Poisson process over dur
// conditioned on n arrivals: n sorted uniform points. Fixing the count keeps
// every run's sample size equal; the spacing stays that of a Poisson
// process.
func poissonDues(r *rand.Rand, n int, dur time.Duration) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(r.Int63n(int64(dur)))
	}
	slices.Sort(dues)
	return dues
}

// arrivals is the number of open-loop arrivals at rate (per second) over
// dur.
func arrivals(rate float64, dur time.Duration) int { return int(math.Round(rate * dur.Seconds())) }

// serveSeeds is the ?seed= range of the serve mix, drawn Zipf(1.1).
const serveSeeds = 64

// contentsSeed seeds the constant stream the requests' contents are drawn
// from.
const contentsSeed = 1

// seedOffset shifts a workload's ?seed= values by a multiple of span chosen
// by the workload seed, so runs with different seeds simulate different
// seeds while their keys repeat in the same pattern.
func seedOffset(seed int64, span int64) int64 {
	return span * (rand.New(rand.NewSource(seed)).Int63n(1 << 20))
}

// serveSchedule is the serve workload's requests, a pure function of its
// arguments: an open-loop Poisson schedule at rate over dur, then closedN
// closed-loop requests. Requests spread evenly over the nspecs-entry mix and
// over md and json, with a Zipf(1.1) ?seed= among serveSeeds values. The
// request sequence and its due times are drawn from a constant stream, and
// seed only shifts the ?seed= values (seedOffset): it picks what is
// simulated, not when. Every run thus has the same pattern of cache hits,
// slow requests and overlaps, so the spread between runs measures the system
// rather than the draw. With due times drawn per seed, which slow requests
// overlapped changed from run to run and moved the median latency by up to
// half.
func serveSchedule(seed int64, rate float64, dur time.Duration, closedN, nspecs int) (open, closed []arrival) {
	r := rand.New(rand.NewSource(contentsSeed))
	zipf := rand.NewZipf(r, 1.1, 1, serveSeeds-1)
	offset := seedOffset(seed, serveSeeds)
	contents := func(n int) []arrival {
		out := make([]arrival, n)
		for i := range out {
			out[i] = arrival{Spec: i % nspecs, Seed: offset + int64(zipf.Uint64()) + 1, Format: "md", Dup: -1}
			if (i/nspecs)%2 == 1 {
				out[i].Format = "json"
			}
		}
		r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	n := arrivals(rate, dur)
	open, closed = contents(n), contents(closedN)
	for i, d := range poissonDues(r, n, dur) {
		open[i].Due = d
	}
	return open, closed
}

// jobsClients is the number of X-Client identities submitting jobs.
const jobsClients = 8

// jobsDupFrac is the share of open-loop submissions that repeat an earlier
// (spec, seed) and must coalesce onto its job.
const jobsDupFrac = 0.2

// jobsSchedule is the jobs workload's submissions, a pure function of its
// arguments: an open-loop Poisson schedule at rate over dur, spread over
// jobsClients identities, in which jobsDupFrac of the arrivals repeat an
// earlier new one; then closedN closed-loop submissions that are all new.
// New submissions spread evenly over the nspecs-entry mix, each with a seed
// no other new submission uses. As in serveSchedule, the submissions and
// their due times are drawn from a constant stream and seed only shifts the
// job seeds (seedOffset).
func jobsSchedule(seed int64, rate float64, dur time.Duration, closedN, nspecs int) (open, closed []arrival) {
	const seedSpan = 1 << 20
	r := rand.New(rand.NewSource(contentsSeed))
	offset := seedOffset(seed, seedSpan)
	n := arrivals(rate, dur)
	dup := make([]bool, n)
	if n > 1 {
		for _, i := range r.Perm(n - 1)[:int(math.Round(jobsDupFrac*float64(n)))] {
			dup[i+1] = true
		}
	}
	specs := make([]int, n+closedN)
	for i := range specs {
		specs[i] = i % nspecs
	}
	r.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	type key struct {
		spec int
		seed int64
	}
	used := make(map[key]bool)
	fresh := func(spec int) arrival {
		for {
			a := arrival{Spec: spec, Seed: offset + r.Int63n(seedSpan) + 1, Client: r.Intn(jobsClients), Dup: -1}
			if k := (key{a.Spec, a.Seed}); !used[k] {
				used[k] = true
				return a
			}
		}
	}
	var news []int
	for i := 0; i < n; i++ {
		var a arrival
		if dup[i] {
			j := news[r.Intn(len(news))]
			a = open[j]
			a.Client, a.Dup = r.Intn(jobsClients), j
		} else {
			a = fresh(specs[i])
			news = append(news, i)
		}
		open = append(open, a)
	}
	for i, d := range poissonDues(r, n, dur) {
		open[i].Due = d
	}
	// Each closed-loop submission comes from a client identity of its own:
	// the closed loop measures how fast the job path completes work, and
	// at that pace jobsClients identities would exceed the per-client
	// submission rate.
	for i := 0; i < closedN; i++ {
		a := fresh(specs[n+i])
		a.Client = jobsClients + i
		closed = append(closed, a)
	}
	return open, closed
}

// outcome is one open-loop operation's timing.
type outcome struct {
	Late    time.Duration // start minus due: how late the generator ran
	Latency time.Duration // end minus due: includes waiting behind earlier operations
	Err     error
}

// openLoop starts op(i) at dues[i] after the phase start, each on its own
// goroutine and whether or not earlier operations have finished, and times
// every operation from its due time. Operations not started when ctx ends
// report ctx's error.
func openLoop(ctx context.Context, dues []time.Duration, op func(i int) error) []outcome {
	out := make([]outcome, len(dues))
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range dues {
		if wait := time.Until(start.Add(due)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if err := ctx.Err(); err != nil {
			for j := i; j < len(dues); j++ {
				out[j].Err = err
			}
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			began := time.Since(start)
			err := op(i)
			out[i] = outcome{Late: began - dues[i], Latency: time.Since(start) - dues[i], Err: err}
		}(i)
	}
	wg.Wait()
	return out
}

// closedLoop runs op(0..n-1) from `clients` workers, each starting its next
// operation only when its previous one has finished, and returns every
// operation's latency and error plus the makespan.
func closedLoop(ctx context.Context, n, clients int, op func(i int) error) ([]time.Duration, []error, time.Duration) {
	lat := make([]time.Duration, n)
	errs := make([]error, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				t0 := time.Now()
				errs[i] = op(i)
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return lat, errs, time.Since(start)
}

// newClient returns an HTTP client limited to conns connections: the load
// comes from one process with at most one thread and connection per CPU.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   2 * time.Minute,
	}
}

// do sends one request and reads the whole response.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, header map[string]string) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
