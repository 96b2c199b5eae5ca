package local_test

// Silent-stretch tests: after a round in which no node sent anything, Run
// skips to the earliest wake round of its live Sleepers. Results must be
// byte-identical to stepping every round (the same nodes behind a wrapper
// that hides Wake), at every worker count and under the permuted
// scheduler, while Round is called on fewer node-rounds than Steps counts.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// beaconAlgo is a toy Sleeper: node u broadcasts a random value at rounds
// period·k + u%4 and halts at round haltAfter·period + u%7, recording what
// it hears. Rounds between beacons are network-silent.
func beaconAlgo(period, haltAfter int) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "beacon",
		NewNode: func(info local.Info) local.Node {
			return &beaconNode{
				info:   info,
				period: period,
				phase:  int(info.ID % 4),
				haltAt: haltAfter*period + int(info.ID%7),
			}
		},
	}
}

type beaconNode struct {
	info          local.Info
	period, phase int
	haltAt        int
	sum, count    int64
}

func (n *beaconNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for _, m := range recv {
		if v, ok := m.(int64); ok {
			n.sum += v
			n.count++
		}
	}
	if r >= n.haltAt {
		return nil, true
	}
	if r%n.period == n.phase {
		return local.Broadcast(n.info.Rand.Int64N(1000), n.info.Degree), false
	}
	return nil, false
}

// Wake returns the next beacon or the halt round, whichever comes first.
func (n *beaconNode) Wake(r int) int {
	next := r + 1 + (n.phase-(r+1)%n.period+n.period)%n.period
	return min(next, n.haltAt)
}

func (n *beaconNode) Output() any { return [3]int64{n.sum, n.count, int64(n.haltAt)} }

// counting wraps an algorithm's nodes to count Round calls. With hide set,
// the wrapper exposes only the Node methods, so the engine cannot skip.
func counting(a local.Algorithm, calls *atomic.Int64, hide func(id int64) bool) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: a.Name(),
		NewNode: func(info local.Info) local.Node {
			c := &countedNode{Node: a.New(info), calls: calls}
			if hide(info.ID) {
				return c
			}
			return countedSleeper{c}
		},
	}
}

type countedNode struct {
	local.Node
	calls *atomic.Int64
}

func (c *countedNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	c.calls.Add(1)
	return c.Node.Round(r, recv)
}

type countedSleeper struct{ *countedNode }

func (c countedSleeper) Wake(r int) int { return c.Node.(local.Sleeper).Wake(r) }

func hideNone(int64) bool { return false }
func hideAll(int64) bool  { return true }

// sleeperConfigs are the engine configurations the skip path must agree
// under.
func sleeperConfigs() map[string]local.Options {
	return map[string]local.Options{
		"w1":          {Seed: 5, Workers: 1},
		"w4":          {Seed: 5, Workers: 4},
		"w4-permuted": {Seed: 5, Workers: 4, Permute: &local.Permute{Seed: 3}},
	}
}

func TestSleeperSkipsSilentRounds(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for cname, opts := range sleeperConfigs() {
			label := gname + "/" + cname
			var hiddenCalls, calls atomic.Int64
			want, err := local.Run(g, counting(beaconAlgo(9, 6), &hiddenCalls, hideAll), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := local.Run(g, counting(beaconAlgo(9, 6), &calls, hideNone), opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, label, want, got)
			if hiddenCalls.Load() != want.Steps {
				t.Errorf("%s: hidden run made %d Round calls for %d steps", label, hiddenCalls.Load(), want.Steps)
			}
			if calls.Load() >= got.Steps {
				t.Errorf("%s: skipping run made %d Round calls for %d steps, want fewer", label, calls.Load(), got.Steps)
			}
		}
	}
}

func TestSleeperNonSleeperDisablesSkipping(t *testing.T) {
	g := graph.Path(100)
	for cname, opts := range sleeperConfigs() {
		var calls atomic.Int64
		// One node in the middle of the path hides its Wake.
		res, err := local.Run(g, counting(beaconAlgo(9, 6), &calls, func(id int64) bool { return id == g.ID(50) }), opts)
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != res.Steps {
			t.Errorf("%s: %d Round calls for %d steps, want equal", cname, calls.Load(), res.Steps)
		}
	}
}

// dormantAlgo sleeps forever without halting; onWake, if set, runs on
// every Wake call.
func dormantAlgo(onWake func(r int)) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "dormant",
		NewNode:  func(local.Info) local.Node { return dormantNode{onWake} },
	}
}

type dormantNode struct{ onWake func(r int) }

func (dormantNode) Round(int, []local.Message) ([]local.Message, bool) { return nil, false }
func (dormantNode) Output() any                                        { return nil }
func (d dormantNode) Wake(r int) int {
	if d.onWake != nil {
		d.onWake(r)
		return r + 1000
	}
	return math.MaxInt
}

func TestSleeperForeverHitsMaxRoundsPromptly(t *testing.T) {
	g := graph.Path(1000)
	// Stepping all 2^21 rounds of 1000 nodes takes far longer than the
	// deadline; a skipping run reaches the cap at once.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for cname, opts := range sleeperConfigs() {
		opts.Context = ctx
		_, err := local.Run(g, dormantAlgo(nil), opts)
		want := fmt.Sprintf("%v: algorithm %q, %d of %d nodes still running after %d rounds",
			local.ErrMaxRounds, "dormant", g.N(), g.N(), local.DefaultMaxRounds)
		if !errors.Is(err, local.ErrMaxRounds) || err.Error() != want {
			t.Fatalf("%s: err = %v, want %q", cname, err, want)
		}
	}
}

func TestSleeperRunCanceled(t *testing.T) {
	g := graph.Path(64)
	for cname, opts := range sleeperConfigs() {
		ctx, cancel := context.WithCancel(context.Background())
		var wakes atomic.Int64
		opts.Context = ctx
		// Every Wake skips 999 rounds; the third scan cancels the run, which
		// must stop at the next round boundary instead of running to the cap.
		_, err := local.Run(g, dormantAlgo(func(int) {
			if wakes.Add(1) == 3*int64(g.N()) {
				cancel()
			}
		}), opts)
		cancel()
		if !errors.Is(err, local.ErrCanceled) || errors.Is(err, local.ErrMaxRounds) {
			t.Fatalf("%s: err = %v, want ErrCanceled", cname, err)
		}
		if got := wakes.Load(); got != 3*int64(g.N()) {
			t.Errorf("%s: %d Wake calls, want %d", cname, got, 3*g.N())
		}
	}
}

// TestComposeSleepMatchesStepped runs every composed stack of the digest
// table under every wake-up pattern with its Wake hidden and exposed: the
// skipping run must give the stepped run's Result at every engine
// configuration, and skip some rounds overall.
func TestComposeSleepMatchesStepped(t *testing.T) {
	var calls, steps int64
	for gname, g := range stackGraphs(t, quickN(90)) {
		for sname, build := range stacks {
			for kname, sched := range schedulers(g) {
				if sched.permute != nil {
					continue // sleeperConfigs permutes
				}
				a := sched.wrap(build(g))
				for cname, opts := range sleeperConfigs() {
					label := fmt.Sprintf("%s/%s/%s/%s", gname, sname, kname, cname)
					var hiddenCalls, shownCalls atomic.Int64
					want, err := local.Run(g, counting(a, &hiddenCalls, hideAll), opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got, err := local.Run(g, counting(a, &shownCalls, hideNone), opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameResult(t, label, want, got)
					calls += shownCalls.Load()
					steps += got.Steps
				}
			}
		}
	}
	if calls >= steps {
		t.Errorf("%d Round calls for %d steps: no composed stack slept", calls, steps)
	}
}

// TestComposeColorMISLooseSleeps runs BenchmarkComposeColorMISLoose's
// stack: with guesses 16 times too loose, the Batched passes and the MIS
// stage wait through long runs of empty color classes, which the engine
// skips. The skipping run must match the stepped one and call Round on
// under half of its steps.
func TestComposeColorMISLooseSleeps(t *testing.T) {
	g := benchGNP(t)
	a := looseColorMIS(g)
	for cname, opts := range sleeperConfigs() {
		if testing.Short() && cname != "w4" {
			continue
		}
		var hiddenCalls, calls atomic.Int64
		want, err := local.Run(g, counting(a, &hiddenCalls, hideAll), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := local.Run(g, counting(a, &calls, hideNone), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, cname, want, got)
		t.Logf("%s: %d Round calls for %d steps", cname, calls.Load(), got.Steps)
		if 2*calls.Load() >= got.Steps {
			t.Errorf("%s: %d Round calls for %d steps, want under 50%%", cname, calls.Load(), got.Steps)
		}
	}
}
