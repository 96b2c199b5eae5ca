package engines

import (
	"testing"

	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/graph"
)

// TestGraphParamsDegenerateGraphs pins the measured parameter vector on the
// degenerate graphs that used to be clamped silently: the floor now lives in
// core.NewParams, and GraphParams must surface exactly its policy — n, a, m
// floored at 1, Δ reported as measured (0 on an edgeless graph).
func TestGraphParamsDegenerateGraphs(t *testing.T) {
	single, err := graph.NewBuilder(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := GraphParams(single), (core.Params{N: 1, Delta: 0, Arb: 1, M: 1}); got != want {
		t.Errorf("single node: %+v, want %+v", got, want)
	}

	b := graph.NewBuilder(5)
	for u := 0; u < 5; u++ {
		b.SetID(u, int64(10+u))
	}
	edgeless, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := GraphParams(edgeless), (core.Params{N: 5, Delta: 0, Arb: 1, M: 14}); got != want {
		t.Errorf("edgeless: %+v, want %+v", got, want)
	}

	// Every row's non-uniform algorithm must accept the degenerate vectors
	// without panicking — the explicit clamp is what makes that safe.
	for _, r := range Rows {
		if r.NonUniform == nil {
			continue
		}
		for gname, g := range map[string]*graph.Graph{"single": single, "edgeless": edgeless} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on %s graph panicked: %v", r.UniformName, gname, p)
					}
				}()
				r.NonUniform(1).Build(GraphParams(g))
			}()
		}
	}
}
