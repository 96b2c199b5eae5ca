package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	open1, closed1 := serveSchedule(7, 12, 20*time.Second, 50, len(serveMix))
	open2, closed2 := serveSchedule(7, 12, 20*time.Second, 50, len(serveMix))
	if !reflect.DeepEqual(open1, open2) || !reflect.DeepEqual(closed1, closed2) {
		t.Fatal("serve schedule differs between two calls with one seed")
	}
	if open3, _ := serveSchedule(8, 12, 20*time.Second, 50, len(serveMix)); reflect.DeepEqual(open1, open3) {
		t.Fatal("serve schedules of seeds 7 and 8 are identical")
	}

	jopen1, jclosed1 := jobsSchedule(7, 16, 20*time.Second, 50, len(jobsMix))
	jopen2, jclosed2 := jobsSchedule(7, 16, 20*time.Second, 50, len(jobsMix))
	if !reflect.DeepEqual(jopen1, jopen2) || !reflect.DeepEqual(jclosed1, jclosed2) {
		t.Fatal("jobs schedule differs between two calls with one seed")
	}
	jopen3, jclosed3 := jobsSchedule(8, 16, 20*time.Second, 50, len(jobsMix))
	if reflect.DeepEqual(jopen1, jopen3) || reflect.DeepEqual(jclosed1, jclosed3) {
		t.Fatal("jobs schedules of seeds 7 and 8 share a phase")
	}
}

func TestJobsScheduleDuplicates(t *testing.T) {
	open, closed := jobsSchedule(3, 16, 60*time.Second, 100, len(jobsMix))
	dups := 0
	seen := make(map[[2]int64]bool)
	for i, a := range open {
		k := [2]int64{int64(a.Spec), a.Seed}
		if a.Dup >= 0 {
			dups++
			if o := open[a.Dup]; a.Dup >= i || o.Spec != a.Spec || o.Seed != a.Seed || o.Dup >= 0 {
				t.Fatalf("arrival %d repeats %d, which is not an earlier new submission of its key", i, a.Dup)
			}
			continue
		}
		if seen[k] {
			t.Fatalf("new arrival %d reuses key %v", i, k)
		}
		seen[k] = true
	}
	for _, a := range closed {
		k := [2]int64{int64(a.Spec), a.Seed}
		if a.Dup >= 0 || seen[k] {
			t.Fatalf("closed-loop submission %+v is not new", a)
		}
		seen[k] = true
	}
	if want := int(jobsDupFrac*float64(len(open)) + 0.5); dups != want {
		t.Fatalf("%d duplicates among %d arrivals, want %d", dups, len(open), want)
	}
}

func TestOfferedRateMatchesPinnedRate(t *testing.T) {
	const rate = 12.0
	dur := 20 * time.Second
	open, _ := serveSchedule(1, rate, dur, 0, len(serveMix))
	if got := float64(len(open)) / dur.Seconds(); got != rate {
		t.Fatalf("schedule offers %.2f requests/s, pinned %.2f/s", got, rate)
	}
	for i, a := range open {
		if a.Due < 0 || a.Due >= dur || (i > 0 && a.Due < open[i-1].Due) {
			t.Fatalf("arrival %d due at %v: outside [0, %v) or out of order", i, a.Due, dur)
		}
	}

	// The generator itself keeps up: operations start when they are due.
	const fast = 400
	dues := poissonDues(rand.New(rand.NewSource(2)), fast, time.Second)
	if len(dues) != fast {
		t.Fatalf("%d dues, want %d", len(dues), fast)
	}
	outs := openLoop(context.Background(), dues, func(int) error { return nil })
	lates := make([]float64, len(outs))
	for i, o := range outs {
		lates[i] = float64(o.Late) / float64(time.Millisecond)
	}
	span := dues[len(dues)-1] + outs[len(outs)-1].Late
	if offered := float64(len(dues)) / span.Seconds(); offered < fast*0.9 || offered > fast*1.1 {
		t.Fatalf("measured offered rate %.1f/s, pinned %d/s", offered, fast)
	}
	if p95 := quantile(lates, 0.95); p95 > 20 {
		t.Fatalf("generator ran %.1f ms late at p95", p95)
	}
}

func TestLatencyTimedFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("stall") == "1" {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(1)
	dues := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond}
	outs := openLoop(context.Background(), dues, func(i int) error {
		url := srv.URL
		if i == 0 {
			url += "?stall=1"
		}
		_, _, err := do(context.Background(), c, http.MethodGet, url, nil, nil)
		return err
	})
	for i, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		// Every request waits on the one connection behind the stalled one,
		// so its latency from its due time covers the rest of the stall.
		if want := stall - dues[i]; o.Latency < want {
			t.Errorf("request %d: latency %v, want at least %v (the stall still ahead of it)", i, o.Latency, want)
		}
		if o.Late > 30*time.Millisecond {
			t.Errorf("request %d started %v late", i, o.Late)
		}
	}
}
