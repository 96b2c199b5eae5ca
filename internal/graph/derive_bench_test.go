package graph

// BenchmarkDerive* guards the CSR-direct derived-construction hot paths
// (LineGraph, Power) and the corpus cache that amortizes them. CI runs these
// with -benchmem; the flattened builds must stay allocation-lean (no
// edge-index map, no Builder arc resort).

import (
	"fmt"
	"testing"
)

func benchBaseGraph(b *testing.B, n int, avgDeg float64) *Graph {
	b.Helper()
	g, err := GNP(n, avgDeg/float64(n-1), int64(n))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkDeriveLineGraph(b *testing.B) {
	for _, n := range []int{512, 2048} {
		g := benchBaseGraph(b, n, 8)
		b.Run(fmt.Sprintf("gnp8/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := LineGraph(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDerivePower(b *testing.B) {
	g := benchBaseGraph(b, 2048, 6)
	for _, k := range []int{2, 3} {
		b.Run(fmt.Sprintf("gnp6/n=2048/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Power(g, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDeriveProduct(b *testing.B) {
	g := benchBaseGraph(b, 1024, 6)
	b.Run("gnp6/n=1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ProductDegPlusOne(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorpusWarm measures the steady-state cost of going through the
// corpus for an already-built family — the per-lookup overhead every cached
// experiment pays.
func BenchmarkCorpusWarm(b *testing.B) {
	c := NewCorpus()
	if _, err := cachedGNP(c, 4096, 8/4095.0, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cachedGNP(c, 4096, 8/4095.0, 1); err != nil {
			b.Fatal(err)
		}
	}
}
