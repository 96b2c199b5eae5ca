// Frequency assignment without global knowledge.
//
// A wireless mesh must assign frequencies (colors) so that neighbouring
// stations never share one. No station knows the size of the network or its
// maximum degree. This example runs the paper's two uniform coloring
// constructions:
//
//   - Theorem 5 (strong list coloring): a uniform O(Δ²)-coloring in
//     O(log* m) rounds, from Linial's non-uniform reduction;
//   - Section 5.1 (clique product): a uniform (deg+1)-coloring driven by a
//     uniform MIS — each station's frequency index never exceeds its own
//     degree + 1, ideal when degrees vary wildly.
package main

import (
	"fmt"
	"os"

	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coloring:", err)
		os.Exit(1)
	}
}

func run() error {
	// A city-like mesh: dense core (clique), suburban grid, and long feeder
	// lines — degrees range from 2 to 30 in one network.
	core := graph.Complete(30)
	grid := graph.Grid(12, 12)
	feeders := graph.Caterpillar(40, 2)
	g := graph.DisjointUnion(core, grid, feeders)

	quad, err := engines.RowQuadColoring.New(0)
	if err != nil {
		return err
	}
	degPlus1, err := engines.RowDegColoring.New(0)
	if err != nil {
		return err
	}

	for _, tc := range []struct {
		name string
		algo local.Algorithm
	}{
		{"Theorem 5, O(Δ²) colors, O(log* m) rounds", quad},
		{"Section 5.1, deg+1 colors via uniform MIS", degPlus1},
	} {
		res, err := local.Run(g, tc.algo, local.Options{Seed: 3})
		if err != nil {
			return err
		}
		colors, err := problems.Ints(res.Outputs)
		if err != nil {
			return err
		}
		if err := problems.ValidColoring(g, colors, 0); err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		fmt.Printf("%-45s rounds=%4d  colors used ≤ %4d (Δ=%d)\n",
			tc.name, res.Rounds, problems.MaxColor(colors), g.MaxDegree())
	}

	// The Section 5.1 guarantee is per-node: check it explicitly.
	res, err := local.Run(g, degPlus1, local.Options{Seed: 3})
	if err != nil {
		return err
	}
	colors, err := problems.Ints(res.Outputs)
	if err != nil {
		return err
	}
	worst := 0
	for u := 0; u < g.N(); u++ {
		if colors[u] > g.Degree(u)+1 {
			return fmt.Errorf("node %d: color %d exceeds deg+1", u, colors[u])
		}
		if colors[u] > worst {
			worst = colors[u]
		}
	}
	fmt.Printf("\nper-node guarantee holds: every station fits inside its own deg+1 band (max band used: %d)\n", worst)
	return nil
}
