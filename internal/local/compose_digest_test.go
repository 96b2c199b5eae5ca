package local_test

// The Compose oracle: composed stacks under every scheduler kind, checked
// against a committed digest table, and the α-synchronizer's buffer bound.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/coloralgo"
	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/digest"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// foldMsg is what a fold node broadcasts each round.
type foldMsg struct {
	id int64
	r  int
}

// fold is a stage that reacts to every payload it receives: it runs
// 2 + id mod spread rounds, broadcasting (id, round) each round, and folds
// every received payload with its port and round into its output (seeded
// with the previous stage's output). Stage lengths differ between
// neighbours, so nodes run ahead and behind each other, and a payload
// delivered at the wrong step or into the wrong stage changes an output.
func fold(spread int64) local.Algorithm {
	return sparseFold(spread, 0)
}

// sparseFold is fold sending on a seeded subset of ports and rounds:
// with salt s != 0, the node sends on port p in round r only when a hash
// of (s, id, p, r) is divisible by 3, and stays silent in rounds where no
// port is picked. Its composed stacks mix payload envelopes with rounds
// that carry none, so a neighbour's position has to be tracked without a
// payload to read it from, and its nodes sleep through their silent
// rounds.
func sparseFold(spread int64, salt uint64) local.Algorithm {
	name := fmt.Sprintf("fold(%d)", spread)
	if salt != 0 {
		name = fmt.Sprintf("sparse-fold(%d,%d)", spread, salt)
	}
	return local.AlgorithmFunc{
		AlgoName: name,
		NewNode: func(info local.Info) local.Node {
			acc, _ := info.Input.(uint64)
			return &foldNode{id: info.ID, deg: info.Degree, rounds: 2 + int(info.ID%spread), acc: acc, salt: salt}
		},
	}
}

type foldNode struct {
	id     int64
	deg    int
	rounds int
	acc    uint64
	salt   uint64
}

func (n *foldNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for p, m := range recv {
		if dm, ok := m.(foldMsg); ok {
			n.acc = mathutil.SplitMix64(n.acc ^ uint64(dm.id)<<24 ^ uint64(dm.r)<<12 ^ uint64(r)<<6 ^ uint64(p))
		}
	}
	var send []local.Message
	for p := 0; p < n.deg; p++ {
		if n.sends(p, r) {
			if send == nil {
				send = make([]local.Message, n.deg)
			}
			send[p] = foldMsg{id: n.id, r: r}
		}
	}
	return send, r+1 >= n.rounds
}

// sends reports whether the node sends on port p in round r.
func (n *foldNode) sends(p, r int) bool {
	return n.salt == 0 || mathutil.SplitMix64(n.salt^uint64(n.id)<<20^uint64(p)<<10^uint64(r))%3 == 0
}

// Wake implements local.Sleeper: with an empty inbox the node idles until
// its next sending round or its last round.
func (n *foldNode) Wake(r int) int {
	for t := r + 1; t < n.rounds-1; t++ {
		for p := 0; p < n.deg; p++ {
			if n.sends(p, t) {
				return t
			}
		}
	}
	return max(r+1, n.rounds-1)
}

func (n *foldNode) Output() any { return n.acc }

// stacks are the composed algorithms under test, built for a graph's true
// parameters: two of fold stages and the production colorings, whose
// Compose levels nest (colormis and DeltaPlusOne run the halving reduction,
// itself a composition, as a stage).
var stacks = map[string]func(g *graph.Graph) local.Algorithm{
	"fold": func(*graph.Graph) local.Algorithm {
		return local.Compose("fold", local.Stage{Algo: fold(3)}, local.Stage{Algo: fold(4)}, local.Stage{Algo: fold(2)})
	},
	"sparse": func(*graph.Graph) local.Algorithm {
		return local.Compose("sparse",
			local.Stage{Algo: sparseFold(5, 1)}, local.Stage{Algo: sparseFold(3, 2)},
			local.Stage{Algo: sparseFold(7, 3)}, local.Stage{Algo: sparseFold(4, 4)})
	},
	"colormis": func(g *graph.Graph) local.Algorithm { return colormis.New(g.MaxDegree(), g.MaxIDValue()) },
	"delta+1":  func(g *graph.Graph) local.Algorithm { return coloralgo.DeltaPlusOne(g.MaxDegree(), g.MaxIDValue()) },
	"lambda3":  func(g *graph.Graph) local.Algorithm { return coloralgo.Lambda(3, g.MaxDegree(), g.MaxIDValue()) },
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

func (s scheduler) wrap(a local.Algorithm) local.Algorithm {
	if s.delay == nil {
		return a
	}
	return local.WithWakeup(a, s.delay)
}

// stackGraphs is a small suite of the corpus's families on about n nodes.
func stackGraphs(t testing.TB, n int) map[string]*graph.Graph {
	t.Helper()
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

// quickN is n, halved under -short so a matrix stays quick under -race.
func quickN(n int) int {
	if testing.Short() {
		return n / 2
	}
	return n
}

// lineGuesses bounds the line graph's max degree and identities from the
// host's, as the matching engine does.
func lineGuesses(g *graph.Graph) (int, int64) {
	m := max(g.MaxIDValue(), 1)
	return max(2*g.MaxDegree(), 1), graph.PackIDs(m, m)
}

// deltaPlusOneEngine is a Theorem 5 engine running coloralgo.DeltaPlusOne;
// the λ = 1 engine gives its palette, Δ̃+1, and bounds.
type deltaPlusOneEngine struct{ engines.LambdaColoringEngine }

func (deltaPlusOneEngine) New(deltaHat int, mHat int64) local.Algorithm {
	return coloralgo.DeltaPlusOne(deltaHat, mHat)
}

// TestComposeRunDigests is the differential oracle of Compose: every
// composed stack runs under every scheduler kind of the scenario layer and
// under random wake-up delays, on the line graph (where every envelope
// travels inside the lift's bundles) and inside the transformers' Subrun
// windows (colormis as the Theorem 1 black box; DeltaPlusOne and Lambda as
// Theorem 5 engines, whose masked sub-executions run inside the Theorem 1
// windows of the SLC phase). Each case must give its digest in
// testdata/compose_digests.json at 1 and 4 workers. Regenerate the table
// only when a change is meant to alter these Results:
//
//	go test ./internal/local -run TestComposeRunDigests -update
func TestComposeRunDigests(t *testing.T) {
	deltaPlusOne, err := core.UniformColoring(deltaPlusOneEngine{engines.LambdaColoringEngine{Lambda: 1}})
	if err != nil {
		t.Fatal(err)
	}
	lambda2, err := engines.RowLambdaColoring.New(2)
	if err != nil {
		t.Fatal(err)
	}
	uniformMIS, err := engines.RowMISDelta.New(0)
	if err != nil {
		t.Fatal(err)
	}
	windows := map[string]local.Algorithm{
		"uniform-colormis": uniformMIS,
		"theorem5-delta+1": deltaPlusOne,
		"theorem5-lambda2": lambda2,
	}
	var cases []digest.Case
	add := func(name string, g *graph.Graph, algo local.Algorithm, opts local.Options) {
		// The longest case takes 1,461 rounds; the cap makes a Compose that
		// deadlocks fail in seconds instead of running to the engine's
		// default cap.
		opts.MaxRounds = 1 << 14
		cases = append(cases, digest.Case{Name: name, Graph: g, Algo: algo, Opts: opts})
	}
	for gname, g := range stackGraphs(t, 90) {
		scheds := schedulers(g)
		for sname, build := range stacks {
			for kname, sched := range scheds {
				add(fmt.Sprintf("stack/%s/%s/%s", gname, sname, kname), g,
					sched.wrap(build(g)), local.Options{Seed: 7, Permute: sched.permute})
			}
		}
		for _, kname := range []string{"lockstep", "staggered", "permuted"} {
			sched := scheds[kname]
			add(fmt.Sprintf("line/%s/%s", gname, kname), g,
				sched.wrap(lift.LineGraph(colormis.New(lineGuesses(g)), nil)), local.Options{Seed: 9, Permute: sched.permute})
		}
		for aname, a := range windows {
			for _, kname := range []string{"lockstep", "modular"} {
				add(fmt.Sprintf("windows/%s/%s/%s", gname, aname, kname), g, scheds[kname].wrap(a), local.Options{Seed: 5})
			}
		}
	}
	digest.Run(t, "testdata/compose_digests.json", cases, digest.Workers(1, 4)...)
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
	for gname, g := range stackGraphs(t, quickN(90)) {
		for sname, build := range stacks {
			for kname, sched := range schedulers(g) {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", gname, sname, kname, workers), func(t *testing.T) {
						var peaks local.BufPeaks
						a := sched.wrap(local.BufProbe(&peaks, build(g)))
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
