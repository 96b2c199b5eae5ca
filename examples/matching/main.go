// Sensor pairing without global knowledge.
//
// A field of sensors must pair up with one neighbour each (for mutual
// health checks), maximally: any unpaired sensor must have all neighbours
// paired. This is maximal matching — Table 1's row (vi). The paper's
// Theorem 1 with the P_MM pruner of Observation 3.3 makes the line-graph
// matching algorithm uniform: no sensor needs to know the size or the
// degree of the deployment.
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
		fmt.Fprintln(os.Stderr, "matching:", err)
		os.Exit(1)
	}
}

func run() error {
	// The deployment: a torus-shaped sensor grid with some random long
	// links (maintenance robots' docking paths).
	torus, err := graph.Torus(20, 25)
	if err != nil {
		return err
	}
	extra, err := graph.GNP(torus.N(), 0.002, 5)
	if err != nil {
		return err
	}
	b := graph.NewBuilder(torus.N())
	for u := 0; u < torus.N(); u++ {
		for _, v := range torus.Neighbors(u) {
			if u < int(v) {
				b.AddEdge(u, int(v))
			}
		}
		for _, v := range extra.Neighbors(u) {
			if u < int(v) {
				b.AddEdge(u, int(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return err
	}

	baseline := engines.RowMatching.NonUniform(0).Build(engines.GraphParams(g))
	uniform, err := engines.RowMatching.New(0)
	if err != nil {
		return err
	}

	resBase, err := local.Run(g, baseline, local.Options{Seed: 2})
	if err != nil {
		return err
	}
	resUni, err := local.Run(g, uniform, local.Options{Seed: 2})
	if err != nil {
		return err
	}
	for name, res := range map[string]*local.Result{"non-uniform": resBase, "uniform": resUni} {
		if err := problems.ValidMaximalMatching(g, res.Outputs); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		paired := 0
		for _, o := range res.Outputs {
			if c, ok := o.(problems.EdgeClaim); ok && c.Claimed() {
				paired++
			}
		}
		fmt.Printf("%-12s rounds=%4d  paired sensors=%d/%d\n", name, res.Rounds, paired, g.N())
	}
	fmt.Printf("\nuniform/non-uniform round ratio: %.2f\n",
		float64(resUni.Rounds)/float64(resBase.Rounds))
	return nil
}
