package graph

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// cachedPath fetches the path on n nodes from c.
func cachedPath(c *Corpus, n int) *Graph {
	g, _ := c.Get(CorpusKey{Family: "path", A: int64(n)}, func() (*Graph, error) { return Path(n), nil })
	return g
}

// cachedGNP fetches G(n, p) for seed from c.
func cachedGNP(c *Corpus, n int, p float64, seed int64) (*Graph, error) {
	key := CorpusKey{Family: "gnp", A: int64(n), F: math.Float64bits(p), Seed: seed}
	return c.Get(key, func() (*Graph, error) { return GNP(n, p, seed) })
}

// TestCorpusHitMissSemantics pins the caching contract: the first request
// for a key builds and counts a miss, every later request returns the same
// canonical instance and counts a hit, and distinct keys never collide.
func TestCorpusHitMissSemantics(t *testing.T) {
	c := NewCorpus()
	g1, err := cachedGNP(c, 120, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first build: hits=%d misses=%d, want 0/1", h, m)
	}
	g2, err := cachedGNP(c, 120, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("same key returned distinct instances")
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("after hit: hits=%d misses=%d, want 1/1", h, m)
	}
	// Different p, seed or n are different keys.
	g3, _ := cachedGNP(c, 120, 0.06, 7)
	g4, _ := cachedGNP(c, 120, 0.05, 8)
	g5, _ := cachedGNP(c, 121, 0.05, 7)
	if g3 == g1 || g4 == g1 || g5 == g1 {
		t.Fatal("distinct keys collided")
	}
	if h, m := c.Stats(); h != 1 || m != 4 {
		t.Fatalf("after distinct keys: hits=%d misses=%d, want 1/4", h, m)
	}
	// Generator errors are memoized too.
	cycle2 := func() (*Graph, error) { return Cycle(2) }
	if _, err := c.Get(CorpusKey{Family: "cycle", A: 2}, cycle2); err == nil {
		t.Fatal("corpus hid the generator error")
	}
	if _, err := c.Get(CorpusKey{Family: "cycle", A: 2}, cycle2); err == nil {
		t.Fatal("memoized error lost")
	}
}

// TestCorpusDerivedKeying checks that ID perturbations are cached per
// (source graph, op, parameters): the shuffled and clustered perturbations
// with equal parameters are distinct entries, and so are equal
// perturbations of two distinct sources.
func TestCorpusDerivedKeying(t *testing.T) {
	c := NewCorpus()
	base := cachedPath(c, 16)
	shuffled, err := c.ShuffledIDsOf(base, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := c.ClusteredIDsOf(base, 1, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if shuffled == clustered {
		t.Fatal("perturbations with equal parameters collided")
	}
	if again, _ := c.ShuffledIDsOf(base, 64, 3); again != shuffled {
		t.Fatal("shuffled ids not cached")
	}
	// A different source graph with equal parameters is a different key.
	other, err := c.ShuffledIDsOf(Path(16), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if other == shuffled {
		t.Fatal("derived cache keyed by value, not source identity")
	}
}

// TestCorpusConcurrentBuildOnce floods one cold key from many goroutines:
// the generator must run exactly once and everyone must get that instance.
// Run under -race in CI.
func TestCorpusConcurrentBuildOnce(t *testing.T) {
	c := NewCorpus()
	var builds atomic.Int64
	key := CorpusKey{Family: "custom", A: 99}
	const goroutines = 16
	got := make([]*Graph, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			g, err := c.Get(key, func() (*Graph, error) {
				builds.Add(1)
				return Path(500), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = g
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("generator ran %d times, want 1", builds.Load())
	}
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent callers saw different instances")
		}
	}
	if h, m := c.Stats(); m != 1 || h != goroutines-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", h, m, goroutines-1)
	}
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
