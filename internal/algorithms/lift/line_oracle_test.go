package lift_test

// Differential gate for the flat line lift: LineGraph must produce
// byte-identical Results (Outputs, HaltRounds, Rounds, Messages, Steps) to
// the frozen map-based oracle (line_legacy_test.go) for every inner
// algorithm, host family, scheduler and worker count, nested inside the
// transformer's Subrun windows, and under Compose, whose α-synchronizer
// holds early bundles across rounds.

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/algorithms/linial"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/algorithms/matching"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

// oracleHosts is the lift host suite plus one geometric, one G(n,p) and
// one preferential-attachment graph (hubs give the widest routing tables),
// halved under -short so the matrix stays quick under -race.
func oracleHosts(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := lift.HostSuite(t)
	n := 80
	if testing.Short() {
		n = 40
	}
	geo, err := graph.RandomGeometric(n, 0.16, 5)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.GNP(n, 0.07, 13)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := graph.PreferentialAttachment(n, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	gs["geometric"], gs["gnp-extra"], gs["ba"] = geo, gnp, ba
	return gs
}

// lineGuesses bounds the line graph's max degree and identities from the
// host's, as the matching engine does.
func lineGuesses(g *graph.Graph) (int, int64) {
	m := max(g.MaxIDValue(), 1)
	return max(2*g.MaxDegree(), 1), graph.PackIDs(m, m)
}

func sameResult(t *testing.T, got, want *local.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Error("outputs differ from the legacy oracle")
	}
	if !reflect.DeepEqual(got.HaltRounds, want.HaltRounds) {
		t.Error("halt rounds differ from the legacy oracle")
	}
	if got.Rounds != want.Rounds || got.Messages != want.Messages || got.Steps != want.Steps {
		t.Errorf("rounds/messages/steps %d/%d/%d, legacy oracle %d/%d/%d",
			got.Rounds, got.Messages, got.Steps, want.Rounds, want.Messages, want.Steps)
	}
}

func runBoth(t *testing.T, g *graph.Graph, flat, legacy local.Algorithm, opts local.Options) {
	t.Helper()
	want, err := local.Run(g, legacy, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := local.Run(g, flat, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
}

func TestLineLiftMatchesLegacy(t *testing.T) {
	inners := map[string]func(g *graph.Graph) local.Algorithm{
		"linial":   func(g *graph.Graph) local.Algorithm { return linial.New(lineGuesses(g)) },
		"colormis": func(g *graph.Graph) local.Algorithm { return colormis.New(lineGuesses(g)) },
		"luby":     func(*graph.Graph) local.Algorithm { return luby.New() },
	}
	schedulers := map[string]struct {
		wrap    func(local.Algorithm) local.Algorithm
		permute *local.Permute
	}{
		"lockstep":  {wrap: func(a local.Algorithm) local.Algorithm { return a }},
		"staggered": {wrap: func(a local.Algorithm) local.Algorithm { return local.StaggeredWakeup(a, 3, 4) }},
		"permuted":  {wrap: func(a local.Algorithm) local.Algorithm { return a }, permute: &local.Permute{Seed: 11}},
	}
	for gname, g := range oracleHosts(t) {
		for iname, inner := range inners {
			for sname, sched := range schedulers {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", gname, iname, sname, workers), func(t *testing.T) {
						algo := inner(g)
						runBoth(t, g,
							sched.wrap(lift.LineGraph(algo, nil)),
							sched.wrap(lift.LegacyLineGraph(algo, nil)),
							local.Options{Seed: 7, Workers: workers, Permute: sched.permute})
					})
				}
			}
		}
	}
}

// TestLineLiftMatchesLegacyInCompose chains two lifts under staggered
// wake-up: the α-synchronizer buffers bundles that arrive early and hands
// them to the stage rounds later, so any bundle the sender rewrote after
// sending would show up as a differing output.
func TestLineLiftMatchesLegacyInCompose(t *testing.T) {
	delay := func(id int64) int { return int(id*7) % 5 }
	chain := func(line func(local.Algorithm, func(a, b int64) any) local.Algorithm, g *graph.Graph) local.Algorithm {
		return local.WithWakeup(local.Compose("line;line",
			local.Stage{Algo: line(colormis.New(lineGuesses(g)), nil)},
			local.Stage{Algo: line(luby.New(), nil)},
		), delay)
	}
	for gname, g := range oracleHosts(t) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", gname, workers), func(t *testing.T) {
				runBoth(t, g, chain(lift.LineGraph, g), chain(lift.LegacyLineGraph, g),
					local.Options{Seed: 9, Workers: workers})
			})
		}
	}
}

// legacyMatching is matching.New on the legacy lift: the Δ̃/m̃ → line-graph
// guesses and the per-port MIS bit → EdgeClaim translation are repeated
// here because matching builds on lift.LineGraph directly.
func legacyMatching(deltaHat int, mHat int64) local.Algorithm {
	mHat = min(max(mHat, 1), graph.MaxID)
	inner := lift.LegacyLineGraph(colormis.New(2*max(deltaHat, 1), graph.PackIDs(mHat, mHat)), nil)
	return local.AlgorithmFunc{
		AlgoName: fmt.Sprintf("matching(Δ̃=%d)", deltaHat),
		NewNode: func(info local.Info) local.Node {
			return &legacyMatchingNode{info: info, inner: inner.New(info)}
		},
	}
}

type legacyMatchingNode struct {
	info  local.Info
	inner local.Node
	claim problems.EdgeClaim
}

func (n *legacyMatchingNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	send, done := n.inner.Round(r, recv)
	if done {
		for p, o := range n.inner.Output().([]any) {
			if in, ok := o.(bool); ok && in {
				n.claim = problems.NewEdgeClaim(n.info.ID, n.info.Neighbors[p])
				break
			}
		}
	}
	return send, done
}

func (n *legacyMatchingNode) Output() any { return n.claim }

// TestUniformMatchingMatchesLegacy runs the Theorem 1 uniform matching,
// whose every window runs the lift inside a Subrun on the surviving
// subgraph, against the same transformer over the legacy lift.
func TestUniformMatchingMatchesLegacy(t *testing.T) {
	nu, seq := engines.MatchingEngine()
	legacyNU := core.NonUniformFunc{
		AlgoName: nu.Name(),
		Needs:    nu.Params(),
		Build:    func(p core.Params) local.Algorithm { return legacyMatching(p.Delta, p.M) },
	}
	flat := engines.UniformMatching()
	legacy := core.Uniform(legacyNU, seq, core.MatchingPruner())
	for gname, g := range oracleHosts(t) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", gname, workers), func(t *testing.T) {
				runBoth(t, g, flat, legacy, local.Options{Seed: 5, Workers: workers})
			})
		}
	}
	if testing.Short() {
		return
	}
	// The non-uniform baseline itself, on the benchmark's host.
	g := benchHost(t)
	p := engines.GraphParams(g)
	runBoth(t, g, matching.New(p.Delta, p.M), legacyMatching(p.Delta, p.M), local.Options{Seed: 1})
}
