package local_test

// Differential gate for Compose's direct delivery: Compose must produce
// byte-identical Results (Outputs, HaltRounds, Rounds, Messages, Steps) to
// the frozen buffer-everything oracle (compose_legacy_test.go) for the
// composed coloring stacks, under random wake-up delays and every scheduler
// kind of the scenario layer, at 1 and 4 workers, and nested inside the
// line-graph lift and inside the transformers' Subrun windows.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/coloralgo"
	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/algorithms/linial"
	"github.com/unilocal/unilocal/internal/algorithms/reduce"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// composer is one implementation of the Section 2 composition: Compose and
// the wake-up wrapper built on it.
type composer struct {
	compose func(name string, stages ...local.Stage) local.Algorithm
	wakeup  func(a local.Algorithm, delay func(id int64) int) local.Algorithm
}

var (
	current = composer{local.Compose, local.WithWakeup}
	legacy  = composer{local.LegacyCompose, local.LegacyWithWakeup}
)

// The stacks below repeat the stage lists of colormis.New,
// coloralgo.DeltaPlusOne, coloralgo.Lambda and reduce.ToDeltaPlusOne (whose
// halving passes are a composition of their own) over a chosen composer;
// TestComposeStacksMirrorProduction keeps them in step with the real ones.

func (c composer) colormis(deltaHat int, mHat int64) local.Algorithm {
	k := coloralgo.StartPalette(deltaHat, mHat)
	return c.compose(fmt.Sprintf("colormis(Δ̃=%d)", deltaHat),
		local.Stage{Algo: linial.New(deltaHat, mHat)},
		local.Stage{Algo: c.toDeltaPlusOne(k, deltaHat)},
		local.Stage{Algo: reduce.MISByColor(deltaHat + 1)},
	)
}

func (c composer) deltaPlusOne(deltaHat int, mHat int64) local.Algorithm {
	k := coloralgo.StartPalette(deltaHat, mHat)
	return c.compose(fmt.Sprintf("coloring-Δ+1(Δ̃=%d)", deltaHat),
		local.Stage{Algo: linial.New(deltaHat, mHat)},
		local.Stage{Algo: c.toDeltaPlusOne(k, deltaHat)},
	)
}

func (c composer) toDeltaPlusOne(k, deltaHat int) local.Algorithm {
	k, deltaHat = max(k, 1), max(deltaHat, 0)
	var stages []local.Stage
	for cur := k; cur > deltaHat+1; {
		lambda := max(1, mathutil.CeilDiv(cur, 2*(deltaHat+1)))
		stages = append(stages, local.Stage{Algo: reduce.Batched(cur, lambda, deltaHat)})
		next := reduce.BatchedPalette(lambda, deltaHat)
		if next >= cur {
			break
		}
		cur = next
	}
	if len(stages) == 0 {
		return reduce.Batched(k, 1, deltaHat)
	}
	return c.compose(fmt.Sprintf("reduce-to-Δ+1(k=%d,Δ̃=%d)", k, deltaHat), stages...)
}

func (c composer) lambda(lambda, deltaHat int, mHat int64) local.Algorithm {
	k := coloralgo.StartPalette(deltaHat, mHat)
	return c.compose(fmt.Sprintf("coloring-λ(Δ+1)(λ=%d,Δ̃=%d)", lambda, deltaHat),
		local.Stage{Algo: linial.New(deltaHat, mHat)},
		local.Stage{Algo: reduce.Batched(k, lambda, deltaHat)},
	)
}

// digestMsg is what a digest node broadcasts each round.
type digestMsg struct {
	id int64
	r  int
}

// digest is a stage that reacts to every payload it receives: it runs
// 2 + id mod spread rounds, broadcasting (id, round) each round, and folds
// every received payload with its port and round into its output (seeded
// with the previous stage's output). Stage lengths differ between
// neighbours, so nodes run ahead and behind each other, and a payload
// delivered at the wrong step or into the wrong stage changes an output.
func digest(spread int64) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: fmt.Sprintf("digest(%d)", spread),
		NewNode: func(info local.Info) local.Node {
			acc, _ := info.Input.(uint64)
			return &digestNode{id: info.ID, deg: info.Degree, rounds: 2 + int(info.ID%spread), acc: acc}
		},
	}
}

type digestNode struct {
	id     int64
	deg    int
	rounds int
	acc    uint64
}

func (n *digestNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for p, m := range recv {
		if dm, ok := m.(digestMsg); ok {
			n.acc = mathutil.SplitMix64(n.acc ^ uint64(dm.id)<<24 ^ uint64(dm.r)<<12 ^ uint64(r)<<6 ^ uint64(p))
		}
	}
	return local.Broadcast(digestMsg{id: n.id, r: r}, n.deg), r+1 >= n.rounds
}

func (n *digestNode) Output() any { return n.acc }

// stacks are the composed algorithms under test, built for a graph's true
// parameters.
var stacks = map[string]func(c composer, g *graph.Graph) local.Algorithm{
	"digest": func(c composer, _ *graph.Graph) local.Algorithm {
		return c.compose("digest", local.Stage{Algo: digest(3)}, local.Stage{Algo: digest(4)}, local.Stage{Algo: digest(2)})
	},
	"colormis": func(c composer, g *graph.Graph) local.Algorithm {
		return c.colormis(g.MaxDegree(), g.MaxIDValue())
	},
	"delta+1": func(c composer, g *graph.Graph) local.Algorithm {
		return c.deltaPlusOne(g.MaxDegree(), g.MaxIDValue())
	},
	"lambda3": func(c composer, g *graph.Graph) local.Algorithm {
		return c.lambda(3, g.MaxDegree(), g.MaxIDValue())
	},
}

// scheduler is one scenario-layer scheduler kind: a wake-up pattern (nil
// for simultaneous wake-up) and an optional delivery permutation.
type scheduler struct {
	delay   func(id int64) int
	permute *local.Permute
}

// staggerDelay is local.StaggeredWakeup's delay function.
func staggerDelay(seed int64, maxDelay int) func(id int64) int {
	return func(id int64) int {
		h := mathutil.SplitMix64(uint64(seed) ^ mathutil.SplitMix64(uint64(id)))
		return int(h % uint64(maxDelay+1))
	}
}

// randomDelay draws every node's delay in [0, horizon) from a seeded RNG.
func randomDelay(g *graph.Graph, seed uint64, horizon int) func(id int64) int {
	rng := rand.New(rand.NewPCG(seed, 77))
	delays := make(map[int64]int, g.N())
	for u := 0; u < g.N(); u++ {
		delays[g.ID(u)] = rng.IntN(horizon)
	}
	return func(id int64) int { return delays[id] }
}

func schedulers(g *graph.Graph) map[string]scheduler {
	return map[string]scheduler{
		"lockstep":           {},
		"random-wakeup":      {delay: randomDelay(g, 3, 13)},
		"staggered":          {delay: staggerDelay(5, 8)},
		"permuted":           {permute: &local.Permute{Seed: 11}},
		"staggered-permuted": {delay: staggerDelay(7, 8), permute: &local.Permute{Seed: 7}},
		"modular":            {delay: func(id int64) int { return int(id % 9) }},
	}
}

func (s scheduler) wrap(c composer, a local.Algorithm) local.Algorithm {
	if s.delay == nil {
		return a
	}
	return c.wakeup(a, s.delay)
}

// oracleGraphs is a small suite of the corpus's families, trimmed under
// -short so the matrix stays quick under -race.
func oracleGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	n := 90
	if testing.Short() {
		n = 45
	}
	gs := map[string]*graph.Graph{
		"grid": graph.Grid(6, n/6),
		"tree": graph.RandomTree(n, 3),
		"star": graph.Star(n / 3),
	}
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs[name] = g
	}
	gnp, err := graph.GNP(n, 0.08, 13)
	add("gnp", gnp, err)
	ba, err := graph.PreferentialAttachment(n, 2, 17)
	add("ba", ba, err)
	shuffled, err := graph.WithShuffledIDs(graph.Grid(5, n/5), 1<<30, 5)
	add("shuffled", shuffled, err)
	return gs
}

func runBoth(t *testing.T, g *graph.Graph, got, want local.Algorithm, opts local.Options) {
	t.Helper()
	wantRes, err := local.Run(g, want, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := local.Run(g, got, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "compose vs legacy oracle", wantRes, gotRes)
}

// TestComposeStacksMirrorProduction checks that the stacks built over the
// current Compose are the production algorithms, so the oracle below
// compares what the corpus actually runs.
func TestComposeStacksMirrorProduction(t *testing.T) {
	prod := map[string]func(g *graph.Graph) local.Algorithm{
		"colormis": func(g *graph.Graph) local.Algorithm { return colormis.New(g.MaxDegree(), g.MaxIDValue()) },
		"delta+1":  func(g *graph.Graph) local.Algorithm { return coloralgo.DeltaPlusOne(g.MaxDegree(), g.MaxIDValue()) },
		"lambda3":  func(g *graph.Graph) local.Algorithm { return coloralgo.Lambda(3, g.MaxDegree(), g.MaxIDValue()) },
	}
	for gname, g := range oracleGraphs(t) {
		for sname, build := range prod {
			t.Run(gname+"/"+sname, func(t *testing.T) {
				runBoth(t, g, stacks[sname](current, g), build(g), local.Options{Seed: 3})
			})
		}
	}
}

func TestComposeMatchesLegacy(t *testing.T) {
	for gname, g := range oracleGraphs(t) {
		for sname, build := range stacks {
			for kname, sched := range schedulers(g) {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", gname, sname, kname, workers), func(t *testing.T) {
						runBoth(t, g, sched.wrap(current, build(current, g)), sched.wrap(legacy, build(legacy, g)),
							local.Options{Seed: 7, Workers: workers, Permute: sched.permute})
					})
				}
			}
		}
	}
}

// lineGuesses bounds the line graph's max degree and identities from the
// host's, as the matching engine does.
func lineGuesses(g *graph.Graph) (int, int64) {
	m := max(g.MaxIDValue(), 1)
	return max(2*g.MaxDegree(), 1), graph.PackIDs(m, m)
}

// TestComposeMatchesLegacyInLineLift runs the composed stacks on the line
// graph, where every composed envelope travels inside the lift's bundles.
func TestComposeMatchesLegacyInLineLift(t *testing.T) {
	line := func(c composer, g *graph.Graph) local.Algorithm {
		return lift.LineGraph(c.colormis(lineGuesses(g)), nil)
	}
	for gname, g := range oracleGraphs(t) {
		for _, kname := range []string{"lockstep", "staggered", "permuted"} {
			sched := schedulers(g)[kname]
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", gname, kname, workers), func(t *testing.T) {
					runBoth(t, g, sched.wrap(current, line(current, g)), sched.wrap(legacy, line(legacy, g)),
						local.Options{Seed: 9, Workers: workers, Permute: sched.permute})
				})
			}
		}
	}
}

// composedEngine is a Theorem 5 coloring engine whose algorithm is a
// composed stack over a chosen composer.
type composedEngine struct {
	core.ColoringEngine // name, palette and bounds
	build               func(deltaHat int, mHat int64) local.Algorithm
}

func (e composedEngine) New(deltaHat int, mHat int64) local.Algorithm { return e.build(deltaHat, mHat) }

// TestComposeMatchesLegacyInSubrunWindows nests the composed stacks inside
// the transformers' Subrun windows: colormis as the Theorem 1 black box,
// and coloralgo.DeltaPlusOne / Lambda as Theorem 5 engines, whose masked
// sub-executions run inside the Theorem 1 windows of the SLC phase.
func TestComposeMatchesLegacyInSubrunWindows(t *testing.T) {
	uniformMIS := func(c composer) (local.Algorithm, error) {
		nu := core.NonUniformFunc{
			AlgoName: "colormis",
			Needs:    []core.Param{core.ParamMaxDegree, core.ParamMaxID},
			Build:    func(p core.Params) local.Algorithm { return c.colormis(p.Delta, p.M) },
		}
		return core.Uniform(nu, core.Additive(colormis.BoundDelta, colormis.BoundM), core.MISPruner()), nil
	}
	theorem5 := func(base core.ColoringEngine, build func(c composer) func(int, int64) local.Algorithm) func(c composer) (local.Algorithm, error) {
		return func(c composer) (local.Algorithm, error) {
			return core.UniformColoring(composedEngine{ColoringEngine: base, build: build(c)})
		}
	}
	builders := map[string]func(c composer) (local.Algorithm, error){
		"uniform-colormis": uniformMIS,
		// λ = 1 gives DeltaPlusOne's palette, Δ̃+1.
		"theorem5-delta+1": theorem5(engines.LambdaColoringEngine{Lambda: 1}, func(c composer) func(int, int64) local.Algorithm {
			return c.deltaPlusOne
		}),
		"theorem5-lambda2": theorem5(engines.LambdaColoringEngine{Lambda: 2}, func(c composer) func(int, int64) local.Algorithm {
			return func(d int, m int64) local.Algorithm { return c.lambda(2, d, m) }
		}),
	}
	graphs := oracleGraphs(t)
	for aname, build := range builders {
		cur, err := build(current)
		if err != nil {
			t.Fatalf("%s: %v", aname, err)
		}
		leg, err := build(legacy)
		if err != nil {
			t.Fatalf("%s over the legacy Compose: %v", aname, err)
		}
		for gname, g := range graphs {
			for _, kname := range []string{"lockstep", "modular"} {
				sched := schedulers(g)[kname]
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", gname, aname, kname, workers), func(t *testing.T) {
						runBoth(t, g, sched.wrap(current, cur), sched.wrap(legacy, leg), local.Options{Seed: 5, Workers: workers})
					})
				}
			}
		}
	}
}

// TestComposeBufferPeak pins the point of direct delivery: in-step payloads
// never enter the buffer, so under simultaneous wake-up a composition whose
// stages before the last end in the same round at every node never
// allocates one, at any worker count. Lambda (Linial, then one batched
// pass) is such a stack. The halving reduction inside colormis and
// DeltaPlusOne is not: each batched pass ends at a color-dependent round,
// so a node that starts the next stage ahead of a neighbour's neighbour
// receives that neighbour's next payloads early. Under every scheduler the
// α-synchronizer bounds the buffer: a neighbour runs at most one step, plus
// the free first step of its next stage, ahead of the node, so the buffer
// never holds more than 2Δ entries. Staggered wake-up must make the probe
// see a buffered payload, which shows it measures the right thing.
func TestComposeBufferPeak(t *testing.T) {
	emptyInLockstep := map[string]bool{"lambda3": true}
	var staggeredPeak int64
	for gname, g := range oracleGraphs(t) {
		for sname, build := range stacks {
			for kname, sched := range schedulers(g) {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", gname, sname, kname, workers), func(t *testing.T) {
						var peaks local.BufPeaks
						a := sched.wrap(current, build(probeComposer(&peaks), g))
						opts := local.Options{Seed: 1, Workers: workers, Permute: sched.permute}
						if _, err := local.Run(g, a, opts); err != nil {
							t.Fatal(err)
						}
						if c := peaks.Cap.Load(); sched.delay == nil && emptyInLockstep[sname] && c != 0 {
							t.Errorf("buffer allocated (capacity %d) under simultaneous wake-up", c)
						}
						l := peaks.Len.Load()
						if bound := int64(2 * g.MaxDegree()); l > bound {
							t.Errorf("buffer grew to %d entries, above the α-synchronizer bound 2Δ = %d", l, bound)
						}
						if kname == "staggered" {
							staggeredPeak = max(staggeredPeak, l)
						}
					})
				}
			}
		}
	}
	if staggeredPeak == 0 {
		t.Error("the probe saw no buffered payload under staggered wake-up")
	}
}

// probeComposer is the current Compose with the buffer probe attached.
func probeComposer(peaks *local.BufPeaks) composer {
	return composer{compose: func(name string, stages ...local.Stage) local.Algorithm {
		return local.ComposeBufProbe(peaks, name, stages...)
	}}
}
