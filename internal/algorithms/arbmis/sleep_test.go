package arbmis

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// looseShape is the shape of the λ=16 job of the knowledge corpus's
// arboricity sweep (there with clustered identities): a 3-forest on 256
// nodes under guesses ã=64, ñ=4096, 16 times too loose, so every node
// peels into layer 1 and the twelve windows above it are empty everywhere.
func looseShape() (*graph.Graph, local.Algorithm) {
	g := graph.ForestUnion(256, 3, 6)
	return g, New(64, 4096, 16*g.MaxIDValue())
}

// countRounds wraps the arbmis nodes to count Round calls, and their window
// colorings' in coloring; with hide set the wrapper drops Wake, so the
// engine steps every round.
func countRounds(a local.Algorithm, calls, coloring *atomic.Int64, hide bool) local.Algorithm {
	var sched *schedule
	var once sync.Once
	return local.AlgorithmFunc{
		AlgoName: a.Name(),
		NewNode: func(info local.Info) local.Node {
			c := &counted{node: a.New(info).(*node), calls: calls}
			once.Do(func() { sched = countColoring(c.sched, coloring) })
			c.sched = sched
			if hide {
				return hidden{c}
			}
			return c
		},
	}
}

// countColoring returns a copy of s whose window coloring counts its Round
// calls in calls.
func countColoring(s *schedule, calls *atomic.Int64) *schedule {
	c := *s
	c.coloring = local.AlgorithmFunc{
		AlgoName: s.coloring.Name(),
		NewNode: func(info local.Info) local.Node {
			return countedSleeper{Node: s.coloring.New(info), calls: calls}
		},
	}
	return &c
}

type countedSleeper struct {
	local.Node
	calls *atomic.Int64
}

func (c countedSleeper) Round(r int, recv []local.Message) ([]local.Message, bool) {
	c.calls.Add(1)
	return c.Node.Round(r, recv)
}

func (c countedSleeper) Wake(r int) int { return c.Node.(local.Sleeper).Wake(r) }

type counted struct {
	*node
	calls *atomic.Int64
}

func (c *counted) Round(r int, recv []local.Message) ([]local.Message, bool) {
	c.calls.Add(1)
	return c.node.Round(r, recv)
}

type hidden struct{ local.Node }

func TestArbMISLooseGuessesSkipIdleWindows(t *testing.T) {
	g, algo := looseShape()
	configs := map[string]local.Options{
		"w1":          {Seed: 3, Workers: 1},
		"w4":          {Seed: 3, Workers: 4},
		"w4-permuted": {Seed: 3, Workers: 4, Permute: &local.Permute{Seed: 7}},
	}
	if testing.Short() {
		// The stepped reference run is 7.7M node-rounds; one parallel
		// configuration keeps -short -race quick.
		configs = map[string]local.Options{"w4": configs["w4"]}
	}
	for name, opts := range configs {
		var hiddenCalls, calls, hiddenColoring, coloring atomic.Int64
		want, err := local.Run(g, countRounds(algo, &hiddenCalls, &hiddenColoring, true), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := local.Run(g, countRounds(algo, &calls, &coloring, false), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: skipping run differs from the stepped run", name)
		}
		if hiddenCalls.Load() != want.Steps {
			t.Errorf("%s: stepped run made %d Round calls for %d steps", name, hiddenCalls.Load(), want.Steps)
		}
		if 10*calls.Load() >= got.Steps {
			t.Errorf("%s: %d Round calls for %d steps, want under 10%%", name, calls.Load(), got.Steps)
		}
		// The layer-1 window colors every node; the coloring's empty
		// color classes are silent stretches too.
		t.Logf("%s: window coloring stepped %d of %d rounds", name, coloring.Load(), hiddenColoring.Load())
		if hiddenColoring.Load() == 0 || 2*coloring.Load() >= hiddenColoring.Load() {
			t.Errorf("%s: window coloring stepped %d of %d rounds, want under 50%%", name, coloring.Load(), hiddenColoring.Load())
		}
	}
}
