// Quickstart: compute a maximal independent set with ZERO global knowledge.
//
// The nodes of the network know only their own identity and their
// neighbours — not n, not Δ, not the arboricity. The paper's Theorem 1
// turns the non-uniform colormis stack (which needs upper bounds on Δ and
// on the identity space) into a uniform algorithm with the same asymptotic
// running time; this example runs both and compares them.
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
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A random network: 1000 nodes, average degree 8, shuffled identities
	// drawn from a space far larger than n (nobody can infer n from them).
	g, err := graph.GNP(1000, 8.0/999.0, 42)
	if err != nil {
		return err
	}
	g, err = graph.WithShuffledIDs(g, 1<<30, 7)
	if err != nil {
		return err
	}

	// The baseline needs to be told Δ and the identity bound m. The exact
	// regime advertises the measured parameters verbatim.
	baseline := engines.RowMISDelta.NonUniform(0).Build(engines.GraphParams(g))
	resBase, err := local.Run(g, baseline, local.Options{Seed: 1})
	if err != nil {
		return err
	}

	// The uniform algorithm is told NOTHING.
	uniform, err := engines.RowMISDelta.New(0)
	if err != nil {
		return err
	}
	resUni, err := local.Run(g, uniform, local.Options{Seed: 1})
	if err != nil {
		return err
	}

	for name, res := range map[string]*local.Result{"non-uniform": resBase, "uniform": resUni} {
		in, err := problems.Bools(res.Outputs)
		if err != nil {
			return err
		}
		if err := problems.ValidMIS(g, in); err != nil {
			return fmt.Errorf("%s produced an invalid MIS: %w", name, err)
		}
		size := 0
		for _, b := range in {
			if b {
				size++
			}
		}
		fmt.Printf("%-12s  rounds=%4d  messages=%8d  |MIS|=%d\n", name, res.Rounds, res.Messages, size)
	}
	fmt.Printf("\nuniform/non-uniform round ratio: %.2f (Theorem 1: O(1) as n grows)\n",
		float64(resUni.Rounds)/float64(resBase.Rounds))
	return nil
}
