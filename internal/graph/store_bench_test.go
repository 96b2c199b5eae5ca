package graph

import (
	"os"
	"testing"
)

// benchStoreParams name the largest family of the paper corpus (E8's gnp at
// n=16384, scenarios/paper/paper-e08-gnp8-16384.json); TestStoreRoundTrip
// pins its edge count and image size.
const (
	benchStoreN    = 16384
	benchStoreSeed = int64(benchStoreN)
)

func benchStoreP() float64 { return 8 / float64(benchStoreN-1) }

// BenchmarkCorpusColdVsWarm is the disk tier's headline number: "cold"
// generates the family from scratch through a store-less corpus, "warm"
// loads its CSR image from a pre-warmed store (mmap-backed where supported).
// The acceptance bar is warm ≥ 10x faster than cold.
func BenchmarkCorpusColdVsWarm(b *testing.B) {
	s, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	warmer := NewCorpus()
	warmer.AttachStore(s)
	if _, err := warmer.GNP(benchStoreN, benchStoreP(), benchStoreSeed); err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewCorpus().GNP(benchStoreN, benchStoreP(), benchStoreSeed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := NewCorpus()
			c.AttachStore(s)
			if _, err := c.GNP(benchStoreN, benchStoreP(), benchStoreSeed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorpusStoreSave measures image persistence (temp file, streamed
// CRC, atomic rename) for the same family, including the unlink that forces
// every iteration to write rather than skip.
func BenchmarkCorpusStoreSave(b *testing.B) {
	g, err := GNP(benchStoreN, benchStoreP(), benchStoreSeed)
	if err != nil {
		b.Fatal(err)
	}
	s, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := CorpusKey{Family: "bench", A: benchStoreN}
	b.SetBytes(imagePayloadLen(int64(g.N()), int64(g.NumEdges())) + imageHeaderSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.Remove(s.ImagePath(key)); err != nil && !os.IsNotExist(err) {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Save(key, g); err != nil {
			b.Fatal(err)
		}
	}
}
