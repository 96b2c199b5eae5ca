package lift_test

import (
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/algorithms/linial"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/algorithms/matching"
	"github.com/unilocal/unilocal/internal/digest"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// lineHosts is the lift host suite plus one geometric, one G(n,p) and one
// preferential-attachment graph (hubs give the widest routing tables) on n
// nodes.
func lineHosts(t *testing.T, n int) map[string]*graph.Graph {
	t.Helper()
	gs := lift.HostSuite(t)
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

// TestLineLiftRunDigests is the differential oracle of the line lift: every
// inner algorithm on every host under lockstep, staggered and permuted
// scheduling; two lifts chained by Compose under wake-up delays, whose
// α-synchronizer holds early bundles across rounds, so a bundle the sender
// rewrote after sending would change an output; the Theorem 1 uniform
// matching, whose every window runs the lift inside a Subrun on the
// surviving subgraph; and the non-uniform matching on the benchmark's host.
// Each case must give its digest in testdata/line_digests.json at 1 and 4
// workers. Regenerate the table only when a change is meant to alter these
// Results:
//
//	go test ./internal/algorithms/lift -run TestLineLiftRunDigests -update
func TestLineLiftRunDigests(t *testing.T) {
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
	delay := func(id int64) int { return int(id*7) % 5 }
	uniform := engines.UniformMatching()
	var cases []digest.Case
	for gname, g := range lineHosts(t, 80) {
		for iname, inner := range inners {
			for sname, sched := range schedulers {
				cases = append(cases, digest.Case{
					Name:  fmt.Sprintf("lift/%s/%s/%s", gname, iname, sname),
					Graph: g,
					Algo:  sched.wrap(lift.LineGraph(inner(g), nil)),
					Opts:  local.Options{Seed: 7, Permute: sched.permute},
				})
			}
		}
		chain := local.WithWakeup(local.Compose("line;line",
			local.Stage{Algo: lift.LineGraph(colormis.New(lineGuesses(g)), nil)},
			local.Stage{Algo: lift.LineGraph(luby.New(), nil)},
		), delay)
		cases = append(cases,
			digest.Case{Name: "compose/" + gname, Graph: g, Algo: chain, Opts: local.Options{Seed: 9}},
			digest.Case{Name: "uniform-matching/" + gname, Graph: g, Algo: uniform, Opts: local.Options{Seed: 5}})
	}
	g := benchHost(t)
	p := engines.GraphParams(g)
	cases = append(cases, digest.Case{Name: "matching/bench-host", Graph: g, Algo: matching.New(p.Delta, p.M), Opts: local.Options{Seed: 1}})
	// The longest case takes 3,081 rounds; the cap makes a lift or Compose
	// that deadlocks fail in seconds instead of running to the engine's
	// default cap.
	for i := range cases {
		cases[i].Opts.MaxRounds = 1 << 14
	}
	digest.Run(t, "testdata/line_digests.json", cases, digest.Workers(1, 4)...)
}
