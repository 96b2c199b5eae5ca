package edgecolor

import (
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/coloralgo"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
	"github.com/unilocal/unilocal/internal/problems"
)

// collect converts per-port outputs into canonical edge colors.
func collect(t *testing.T, g *graph.Graph, outputs []any) []int {
	t.Helper()
	edges := g.Edges()
	colors := make([]int, len(edges))
	for i, e := range edges {
		outs, ok := outputs[e.U].([]int)
		if !ok {
			t.Fatalf("node %d output %T", e.U, outputs[e.U])
		}
		for p := 0; p < g.Degree(int(e.U)); p++ {
			if g.Neighbors(int(e.U))[p] == e.V {
				colors[i] = outs[p]
				break
			}
		}
		// Endpoint agreement.
		outsV := outputs[e.V].([]int)
		for p := 0; p < g.Degree(int(e.V)); p++ {
			if g.Neighbors(int(e.V))[p] == e.U {
				if outsV[p] != colors[i] {
					t.Fatalf("edge %v: endpoints disagree (%d vs %d)", e, colors[i], outsV[p])
				}
			}
		}
	}
	return colors
}

func TestEdgeColoringOnSuites(t *testing.T) {
	cyc, _ := graph.Cycle(17)
	gnp, err := graph.GNP(80, 0.06, 4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"path":   graph.Path(20),
		"cycle":  cyc,
		"star":   graph.Star(15),
		"clique": graph.Complete(9),
		"grid":   graph.Grid(6, 7),
		"gnp":    gnp,
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			d, m := g.MaxDegree(), g.MaxIDValue()
			res, err := local.Run(g, New(d, m), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			colors := collect(t, g, res.Outputs)
			if err := problems.ValidEdgeColoring(g, colors, Palette(d)); err != nil {
				t.Fatal(err)
			}
			if env := boundDelta(d) + boundM(int(m)); res.Rounds > env {
				t.Errorf("rounds %d exceed envelope %d", res.Rounds, env)
			}
		})
	}
}

func TestPalettes(t *testing.T) {
	if Palette(4) != 7 {
		t.Errorf("Palette(4) = %d, want 2Δ-1 = 7", Palette(4))
	}
}

// boundDelta is the ascending Δ̃-term of the additive envelope of New.
func boundDelta(d int) int {
	dL, _ := lineParams(d, 1)
	return mathutil.SatAdd(mathutil.SatMul(2, coloralgo.BoundDelta(dL)), 8)
}

// boundM is the ascending m̃-term (packed identities: constant log* term).
func boundM(m int) int {
	if m < 1 {
		m = 1
	}
	return mathutil.LogStar(m) + 2*(5+16) + 8
}
