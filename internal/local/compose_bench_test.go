package local_test

// Microbenchmarks for Compose: colormis (Linial, halving reduction, MIS by
// color) on G(n,p) under lockstep, staggered and loose-guess workloads:
// go test -run '^$' -bench BenchmarkCompose ./internal/local.

import (
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

func benchCompose(b *testing.B, g *graph.Graph, a local.Algorithm) {
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		res, err := local.Run(g, a, local.Options{Seed: 1, Sequential: true})
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps*int64(b.N)), "ns/step")
}

func benchGNP(tb testing.TB) *graph.Graph {
	g, err := graph.GNP(2048, 12/2047.0, 5)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// looseColorMIS is colormis under guesses λ = 16 times the true maximum
// degree and identity.
func looseColorMIS(g *graph.Graph) local.Algorithm {
	return colormis.New(16*g.MaxDegree(), 16*g.MaxIDValue())
}

// BenchmarkComposeColorMIS is the lockstep workload: nearly every payload
// is an in-step one, which direct delivery keeps out of the buffer (only
// the hand-offs between the halving reduction's passes buffer any).
func BenchmarkComposeColorMIS(b *testing.B) {
	g := benchGNP(b)
	benchCompose(b, g, colormis.New(g.MaxDegree(), g.MaxIDValue()))
}

// BenchmarkComposeColorMISStaggered runs the same stack under seeded
// staggered wake-up (max delay 8), where neighbours run ahead and the
// buffer is in use.
func BenchmarkComposeColorMISStaggered(b *testing.B) {
	g := benchGNP(b)
	benchCompose(b, g, local.WithWakeup(colormis.New(g.MaxDegree(), g.MaxIDValue()), staggerDelay(5, 8)))
}

// BenchmarkComposeColorMISLoose runs colormis under λ = 16 loose guesses:
// the Batched passes and the MIS stage spend most rounds waiting for empty
// color classes, network-silent stretches the engine skips now that
// composed nodes send only payloads and status changes.
func BenchmarkComposeColorMISLoose(b *testing.B) {
	g := benchGNP(b)
	benchCompose(b, g, looseColorMIS(g))
}
