package arbmis_test

import (
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/arbmis"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// The two shapes of the knowledge corpus's arboricity sweep whose rounds
// are mostly network-silent, on the sweep's 3-forest of 256 nodes: the
// baseline under 16-times-loose guesses (ã=64, ñ=4096; twelve of its
// thirteen layer windows are empty everywhere) and the uniform transform,
// whose windows outlast the inner algorithm.

func benchRun(b *testing.B, g *graph.Graph, a local.Algorithm) {
	b.ReportAllocs()
	var res *local.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = local.Run(g, a, local.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(float64(res.Steps), "steps")
}

func BenchmarkArbMISLoose(b *testing.B) {
	g := graph.ForestUnion(256, 3, 6)
	benchRun(b, g, arbmis.New(64, 4096, 16*g.MaxIDValue()))
}

func BenchmarkArbMISUniform(b *testing.B) {
	uniform, err := engines.RowMISArb.New(0)
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, graph.ForestUnion(256, 3, 6), uniform)
}
