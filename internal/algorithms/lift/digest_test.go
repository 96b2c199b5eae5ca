package lift_test

// Digest oracle for the Power and Product lifts: every case's Result is
// hashed twice (Outputs, HaltRounds, Rounds and Steps into a behaviour hash,
// Messages into a traffic hash) and compared with the committed table in
// testdata/run_digests.json. The cases run each lift
// with Luby inside on every host-suite graph, under every scheduler kind of
// the knowledge axis, at 1 and 4 workers, as a Compose stage under
// staggered wake-up, and inside the transformer's windows. Regenerate the
// table only when a change is meant to alter these Results:
//
//	go test ./internal/algorithms/lift -run TestLiftRunDigests -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

var update = flag.Bool("update", false, "rewrite testdata/run_digests.json from the live lifts")

const digestFile = "testdata/run_digests.json"

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
			name:    fmt.Sprintf("power%d", k),
			algo:    func() local.Algorithm { return lift.Power(k, luby.New()) },
			windows: func() local.Algorithm { return engines.LasVegasRulingSet(k) },
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

type digestCase struct {
	name string
	g    *graph.Graph
	algo local.Algorithm
	opts local.Options
}

func digestCases(t *testing.T) []digestCase {
	var cases []digestCase
	add := func(name string, g *graph.Graph, algo local.Algorithm, permute *local.Permute) {
		for _, w := range []int{1, 4} {
			cases = append(cases, digestCase{
				name: fmt.Sprintf("%s/w%d", name, w),
				g:    g,
				algo: algo,
				opts: local.Options{Seed: 7, Workers: w, Permute: permute},
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

// runDigest is one table entry: a behaviour hash over Outputs, HaltRounds,
// Rounds and Steps, and a traffic hash over Messages. They are kept apart so
// a change of the messages a protocol sends (the α-synchronizer's envelopes)
// can move the traffic hash while the behaviour hash pins everything else.
type runDigest struct {
	Behaviour string `json:"behaviour"`
	Traffic   string `json:"traffic"`
}

func (d runDigest) String() string {
	return fmt.Sprintf("behaviour %.12s traffic %.12s", d.Behaviour, d.Traffic)
}

// resultDigest hashes every deterministic field of a Result.
func resultDigest(res *local.Result) runDigest {
	h := sha256.New()
	for u, o := range res.Outputs {
		fmt.Fprintf(h, "%d %T %v\n", u, o, o)
	}
	fmt.Fprintf(h, "halt %v\nrounds %d steps %d\n", res.HaltRounds, res.Rounds, res.Steps)
	behaviour := hex.EncodeToString(h.Sum(nil))
	traffic := sha256.Sum256(fmt.Appendf(nil, "messages %d\n", res.Messages))
	return runDigest{Behaviour: behaviour, Traffic: hex.EncodeToString(traffic[:])}
}

// TestLiftRunDigests checks every lift case against the committed digest
// table; with -update it rewrites the table instead.
func TestLiftRunDigests(t *testing.T) {
	var want map[string]runDigest
	if !*update {
		raw, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]runDigest)
	for _, c := range digestCases(t) {
		res, err := local.Run(c.g, c.algo, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = resultDigest(res)
		if !*update && got[c.name] != want[c.name] {
			t.Errorf("%s: %v, table %v", c.name, got[c.name], want[c.name])
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestFile)
		return
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in the table but no longer a case", name)
		}
	}
}
