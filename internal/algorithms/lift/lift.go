// Package lift simulates LOCAL algorithms on derived graphs inside the host
// graph:
//
//   - LineGraph: run a vertex algorithm on L(G) (one virtual node per edge;
//     one virtual round costs two host rounds). Maximal matching is MIS on
//     L(G), and the paper observes (Section 5) that the Barenboim–Elkin
//     edge-coloring algorithms are vertex coloring on the line graph.
//
//   - Power: run a vertex algorithm on G^k (same nodes, edges between nodes
//     at distance <= k; one virtual round costs k host rounds). An MIS of
//     G^β is a (2,β)-ruling set of G.
//
//   - Product: run a vertex algorithm on the clique product G × K_{deg+1}
//     of Section 5.1 (each node simulates deg+1 copies of itself; one
//     virtual round costs one host round). Maximal independent sets of the
//     product are exactly (deg+1)-colorings of G.
//
// Virtual identities match the explicit constructions the tests build in
// graphtest (LineGraph, Power, ProductDegPlusOne), so a lifted run and a
// direct run on the explicit derived graph are behaviourally identical; the
// tests verify this correspondence output-by-output.
package lift

import (
	"math/rand/v2"

	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// childRand derives a deterministic RNG for virtual node vid from a host
// seed drawn once at start-up.
func childRand(hostSeed int64, vid int64) *rand.Rand {
	return local.DeriveRand(hostSeed, vid, uint64(mathutil.SplitMix64(uint64(vid))))
}
