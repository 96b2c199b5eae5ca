package lift

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/linial"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func hostSuite(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gnp, err := graph.GNP(60, 0.08, 21)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := graph.Cycle(11)
	return map[string]*graph.Graph{
		"path":   graph.Path(9),
		"cycle":  cyc,
		"star":   graph.Star(7),
		"clique": graph.Complete(6),
		"grid":   graph.Grid(4, 5),
		"gnp":    gnp,
		"lonely": graph.Empty(3),
	}
}

// TestLineLiftMatchesExplicitLineGraph checks the lift's defining property:
// running a deterministic algorithm through the lift produces exactly the
// outputs of running it directly on the explicit line graph.
func TestLineLiftMatchesExplicitLineGraph(t *testing.T) {
	for name, g := range hostSuite(t) {
		t.Run(name, func(t *testing.T) {
			lg, edges, err := graph.LineGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			deltaL := lg.MaxDegree()
			mL := lg.MaxIDValue()
			if mL == 0 {
				mL = 1
			}
			algo := linial.New(deltaL, mL)

			direct, err := local.Run(lg, algo, local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lifted, err := local.Run(g, LineGraph(algo, nil), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Compare per-edge outputs: the lift reports, at each host node,
			// the output of each incident edge by port.
			for i, e := range edges {
				u := int(e.U)
				p := -1
				for q := 0; q < g.Degree(u); q++ {
					if g.Neighbor(u, q) == int(e.V) {
						p = q
						break
					}
				}
				got := lifted.Outputs[u].([]any)[p]
				want := direct.Outputs[i]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("edge %v: lifted output %v != direct output %v", e, got, want)
				}
			}
			// Both endpoints must agree on each edge's output.
			for u := 0; u < g.N(); u++ {
				outs := lifted.Outputs[u].([]any)
				for p := 0; p < g.Degree(u); p++ {
					v := g.Neighbor(u, p)
					back := g.BackPort(u, p)
					if !reflect.DeepEqual(outs[p], lifted.Outputs[v].([]any)[back]) {
						t.Fatalf("endpoints of edge %d-%d disagree", u, v)
					}
				}
			}
		})
	}
}

func TestLineLiftRoundsOverhead(t *testing.T) {
	g := graph.Grid(6, 6)
	lg, _, err := graph.LineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	algo := linial.New(lg.MaxDegree(), lg.MaxIDValue())
	direct, err := local.Run(lg, algo, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := local.Run(g, LineGraph(algo, nil), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if limit := 2*direct.Rounds + 4; lifted.Rounds > limit {
		t.Errorf("lifted %d rounds > 2x direct %d + 4", lifted.Rounds, direct.Rounds)
	}
}

// TestLineLiftMatching runs colormis through the line lift: the MIS of
// L(G) is a maximal matching of G.
func TestLineLiftMatching(t *testing.T) {
	for name, g := range hostSuite(t) {
		t.Run(name, func(t *testing.T) {
			lg, _, err := graph.LineGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			deltaL := lg.MaxDegree()
			mL := lg.MaxIDValue()
			if mL == 0 {
				mL = 1
			}
			lifted, err := local.Run(g, LineGraph(colormis.New(deltaL, mL), nil), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Translate per-port MIS bits into matching claims.
			y := make([]any, g.N())
			for u := 0; u < g.N(); u++ {
				claim := problems.EdgeClaim{}
				outs := lifted.Outputs[u].([]any)
				for p := 0; p < g.Degree(u); p++ {
					if in, ok := outs[p].(bool); ok && in {
						claim = problems.NewEdgeClaim(g.ID(u), g.ID(g.Neighbor(u, p)))
						break
					}
				}
				y[u] = claim
			}
			if err := problems.ValidMaximalMatching(g, y); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPowerLiftMatchesExplicitPower checks that the power lift reproduces
// the direct run on the explicit G^k output by output, within its round
// bound. With D direct rounds, every simulated node has terminated by its
// virtual round D-1, which the lift runs at host round k + (D-1)·k = k·D
// after k discovery rounds. Its done flag reaches the whole ball, k hops
// away, at host round k·D + k, and a node stops at the end of that flood
// wave, host round k·D + 2k - 1: at most k·D + 2k rounds.
func TestPowerLiftMatchesExplicitPower(t *testing.T) {
	for name, g := range hostSuite(t) {
		for _, k := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				pg, err := graph.Power(g, k)
				if err != nil {
					t.Fatal(err)
				}
				algo := colormis.New(pg.MaxDegree(), pg.MaxIDValue())
				direct, err := local.Run(pg, algo, local.Options{})
				if err != nil {
					t.Fatal(err)
				}
				// The cap makes a broken lift fail fast instead of running
				// to the engine's default cap.
				limit := k*direct.Rounds + 2*k
				lifted, err := local.Run(g, Power(k, algo), local.Options{MaxRounds: limit})
				if err != nil {
					t.Fatalf("k=%d: %v (round limit %d, direct %d)", k, err, limit, direct.Rounds)
				}
				if !reflect.DeepEqual(direct.Outputs, lifted.Outputs) {
					t.Fatalf("k=%d: lifted outputs differ from direct outputs", k)
				}
				if lifted.Rounds > limit {
					t.Errorf("k=%d: lifted %d rounds > limit %d (direct %d)", k, lifted.Rounds, limit, direct.Rounds)
				}
			})
		}
	}
}

func TestPowerLiftLubyRulingSet(t *testing.T) {
	g, err := graph.GNP(120, 0.05, 33)
	if err != nil {
		t.Fatal(err)
	}
	const beta = 2
	res, err := local.Run(g, Power(beta, luby.New()), local.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problems.Bools(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	// MIS of G^β is a (2,β)-ruling set of G (in fact (β+1,β)).
	if err := problems.ValidRulingSet(g, in, 2, beta); err != nil {
		t.Fatal(err)
	}
	if err := problems.ValidRulingSet(g, in, beta+1, beta); err != nil {
		t.Fatal(err)
	}
}

func TestProductLiftMatchesExplicitProduct(t *testing.T) {
	for name, g := range hostSuite(t) {
		t.Run(name, func(t *testing.T) {
			pg, copies, err := graph.ProductDegPlusOne(g)
			if err != nil {
				t.Fatal(err)
			}
			algo := colormis.New(pg.MaxDegree(), pg.MaxIDValue())
			direct, err := local.Run(pg, algo, local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lifted, err := local.Run(g, Product(algo), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for idx, c := range copies {
				got := lifted.Outputs[c.V].([]any)[c.I-1]
				if !reflect.DeepEqual(got, direct.Outputs[idx]) {
					t.Fatalf("copy %+v: lifted %v != direct %v", c, got, direct.Outputs[idx])
				}
			}
			// Host round 0 exchanges degrees and virtual round t runs at host
			// round t+1, so every copy has terminated by host round D, and
			// every neighbour learns it, and stops, at host round D+1.
			if limit := direct.Rounds + 2; lifted.Rounds > limit {
				t.Errorf("lifted %d rounds > limit %d (direct %d)", lifted.Rounds, limit, direct.Rounds)
			}
		})
	}
}

// TestProductLiftGivesColoring verifies the Section 5.1 correspondence on
// the lifted side: an MIS of the product graph selects exactly one copy per
// clique, and the selected indices form a (deg+1)-coloring.
func TestProductLiftGivesColoring(t *testing.T) {
	g, err := graph.GNP(80, 0.07, 41)
	if err != nil {
		t.Fatal(err)
	}
	pg, _, err := graph.ProductDegPlusOne(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := local.Run(g, Product(colormis.New(pg.MaxDegree(), pg.MaxIDValue())), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int, g.N())
	for u := 0; u < g.N(); u++ {
		outs := res.Outputs[u].([]any)
		for i, o := range outs {
			if in, ok := o.(bool); ok && in {
				if colors[u] != 0 {
					t.Fatalf("node %d has two selected copies", u)
				}
				colors[u] = i + 1
			}
		}
		if colors[u] == 0 {
			t.Fatalf("node %d has no selected copy", u)
		}
		if colors[u] > g.Degree(u)+1 {
			t.Fatalf("node %d color %d exceeds deg+1", u, colors[u])
		}
	}
	if err := problems.ValidColoring(g, colors, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
}
