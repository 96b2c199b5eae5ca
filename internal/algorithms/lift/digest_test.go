package lift_test

// Digest oracle for the Power and Product lifts: every case's Result is
// hashed (see internal/digest) and compared with the committed table in
// testdata/run_digests.json. The cases run each lift with Luby inside on
// every host-suite graph, under every scheduler kind of the knowledge axis,
// at 1 and 4 workers, as a Compose stage under staggered wake-up, and
// inside the transformer's windows. Regenerate the table only when a change
// is meant to alter these Results:
//
//	go test ./internal/algorithms/lift -run TestLiftRunDigests -update

import (
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/digest"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// digestLift is one lift under test, with Luby's MIS as the inner algorithm.
type digestLift struct {
	name string
	algo func() local.Algorithm
	// windows is the lift inside core.NewAlternating windows.
	windows func() local.Algorithm
}

func digestLifts() []digestLift {
	var lifts []digestLift
	for _, k := range []int{1, 2, 3} {
		lifts = append(lifts, digestLift{
			name: fmt.Sprintf("power%d", k),
			algo: func() local.Algorithm { return lift.Power(k, luby.New()) },
			windows: func() local.Algorithm {
				a, _ := engines.RowRulingSet.New(k) // a Theorem 2 row cannot fail to build
				return a
			},
		})
	}
	return append(lifts, digestLift{
		name: "product",
		algo: func() local.Algorithm { return lift.Product(luby.New()) },
		windows: func() local.Algorithm {
			return core.NewAlternating("finished(product)", doublingPlan{lift.Product(luby.New())}, finishedPruner{})
		},
	})
}

// doublingPlan runs algo restricted to 4·2^k rounds in window k, marking
// runs cut short.
type doublingPlan struct{ algo local.Algorithm }

func (p doublingPlan) Step(k int) (core.Step, bool) {
	budget := 4 << min(k, 20)
	return core.Step{Algo: local.RestrictRoundsMarked(p.algo, budget), Budget: budget}, true
}

// finishedPruner prunes exactly the nodes whose window run finished within
// its budget, so every window runs the lift again on the unfinished rest.
type finishedPruner struct{}

func (finishedPruner) Name() string { return "P_finished" }
func (finishedPruner) Radius() int  { return 1 }
func (finishedPruner) Decide(b *core.Ball) core.Decision {
	_, cut := b.Center().Tentative.(local.Truncated)
	return core.Decision{Prune: !cut}
}

// digestScheds are the scheduler kinds of the knowledge axis: a wake-up
// wrapper and an engine delivery permutation.
var digestScheds = []struct {
	name    string
	wrap    func(local.Algorithm) local.Algorithm
	permute *local.Permute
}{
	{name: "lockstep", wrap: func(a local.Algorithm) local.Algorithm { return a }},
	{name: "staggered", wrap: func(a local.Algorithm) local.Algorithm { return local.StaggeredWakeup(a, 3, 4) }},
	{name: "permuted", wrap: func(a local.Algorithm) local.Algorithm { return a }, permute: &local.Permute{Seed: 11}},
	{name: "staggered-permuted", wrap: func(a local.Algorithm) local.Algorithm { return local.StaggeredWakeup(a, 5, 6) }, permute: &local.Permute{Seed: 13}},
	{name: "modular", wrap: func(a local.Algorithm) local.Algorithm {
		return local.WithWakeup(a, func(id int64) int { return int(id % 5) })
	}},
}

func digestCases(t *testing.T) []digest.Case {
	var cases []digest.Case
	add := func(name string, g *graph.Graph, algo local.Algorithm, permute *local.Permute) {
		for _, w := range []int{1, 4} {
			cases = append(cases, digest.Case{
				Name:  fmt.Sprintf("%s/w%d", name, w),
				Graph: g,
				Algo:  algo,
				Opts:  local.Options{Seed: 7, Workers: w, Permute: permute},
			})
		}
	}
	lifts := digestLifts()
	hosts := lift.HostSuite(t)
	for gname, g := range hosts {
		for i, l := range lifts {
			for _, s := range digestScheds {
				add(fmt.Sprintf("%s/%s/%s", l.name, gname, s.name), g, s.wrap(l.algo()), s.permute)
			}
			// The lift as the first stage of a composition with the next lift,
			// under staggered wake-up: the α-synchronizer buffers early
			// messages of both stages across host rounds.
			next := lifts[(i+1)%len(lifts)]
			chain := local.Compose(l.name+";"+next.name, local.Stage{Algo: l.algo()}, local.Stage{Algo: next.algo()})
			add(fmt.Sprintf("%s/%s/compose-%s", l.name, gname, next.name), g, local.StaggeredWakeup(chain, 9, 5), nil)
			add(fmt.Sprintf("%s/%s/windows", l.name, gname), g, l.windows(), nil)
		}
	}
	return cases
}

// TestLiftRunDigests checks every lift case against the committed digest
// table; with -update it rewrites the table instead.
func TestLiftRunDigests(t *testing.T) {
	digest.Run(t, "testdata/run_digests.json", digestCases(t))
}
