package graph

import (
	"fmt"
	"sync"
	"testing"
)

// TestBoundedCorpusEvictsLRU pins the eviction order: with limit 2, touching
// A keeps it warm while B — the least recently used — falls out when C
// arrives, and a re-request for B rebuilds (a miss on a structurally
// identical graph).
func TestBoundedCorpusEvictsLRU(t *testing.T) {
	c := NewBoundedCorpus(2)
	a := cachedPath(c, 10)
	b := cachedPath(c, 20)
	if got := c.Metrics(); got.Entries != 2 || got.Evictions != 0 {
		t.Fatalf("after two inserts: %+v", got)
	}
	if cachedPath(c, 10) != a { // touch A: B is now LRU
		t.Fatal("hit returned a different instance")
	}
	cachedPath(c, 30) // evicts B
	m := c.Metrics()
	if m.Entries != 2 || m.Evictions != 1 {
		t.Fatalf("after eviction: %+v", m)
	}
	if cachedPath(c, 10) != a {
		t.Fatal("recently-used entry was evicted")
	}
	b2 := cachedPath(c, 20) // rebuild: pointer differs, structure identical
	if b2 == b {
		t.Fatal("evicted entry returned the stale canonical instance")
	}
	if b2.N() != b.N() || b2.NumEdges() != b.NumEdges() {
		t.Fatalf("rebuilt graph differs: n=%d/%d edges=%d/%d", b2.N(), b.N(), b2.NumEdges(), b.NumEdges())
	}
}

// TestBoundedCorpusCascadesDerived checks that evicting a generated graph
// also drops the derived entries keyed by its identity: their source
// pointer can never be requested again, so keeping them would leak.
func TestBoundedCorpusCascadesDerived(t *testing.T) {
	c := NewBoundedCorpus(3)
	src := cachedPath(c, 12)
	if _, err := c.ShuffledIDsOf(src, 64, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics(); got.Entries != 2 {
		t.Fatalf("after gen+derived: %+v", got)
	}
	// Two fresh inserts push src (and with it its shuffled-ids entry) out.
	// The walk starts at the LRU tail, which is src; its derived entry
	// cascades even though it was used more recently.
	cachedPath(c, 13)
	cachedPath(c, 14)
	m := c.Metrics()
	if m.Entries > 3 {
		t.Fatalf("limit exceeded: %+v", m)
	}
	if m.Evictions < 2 {
		t.Fatalf("expected src and its derived entry evicted together: %+v", m)
	}
	// A fresh request for the same family rebuilds a new canonical source; a
	// derived request against it builds fresh too (counts a miss, not a hit).
	before := c.Metrics()
	src2 := cachedPath(c, 12)
	if src2 == src {
		t.Fatal("evicted source still canonical")
	}
	if _, err := c.ShuffledIDsOf(src2, 64, 1); err != nil {
		t.Fatal(err)
	}
	after := c.Metrics()
	if after.Misses != before.Misses+2 {
		t.Fatalf("rebuild should miss twice: before=%+v after=%+v", before, after)
	}
}

// TestBoundedCorpusCascadeSparesKeep pins the cascade guards: when inserting
// a derived entry evicts its own source graph, the cascade must not drop the
// entry being inserted — it has to survive to serve its build (and later
// hits through the same source pointer).
func TestBoundedCorpusCascadeSparesKeep(t *testing.T) {
	c := NewBoundedCorpus(1)
	src := cachedPath(c, 10)
	// Inserting the shuffled-ids entry pushes the corpus over the limit; the
	// only evictable entry is src itself, whose cascade targets exactly the
	// entry being inserted.
	p1, err := c.ShuffledIDsOf(src, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Entries != 1 {
		t.Fatalf("after cascade-adjacent insert: %+v", m)
	}
	// The surviving entry must be the derived one: a repeat request through
	// the still-held source pointer is a hit on the same instance.
	p2, err := c.ShuffledIDsOf(src, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatal("inserted derived entry was cascaded out with its source")
	}
	if after := c.Metrics(); after.Hits != m.Hits+1 {
		t.Fatalf("repeat derived request missed: before=%+v after=%+v", m, after)
	}
}

// TestBoundedCorpusUnboundedUnchanged pins that the default corpus never
// evicts, whatever the traffic.
func TestBoundedCorpusUnboundedUnchanged(t *testing.T) {
	c := NewCorpus()
	for n := 2; n < 40; n++ {
		cachedPath(c, n)
	}
	m := c.Metrics()
	if m.Evictions != 0 || m.Entries != 38 || m.Limit != 0 {
		t.Fatalf("unbounded corpus evicted: %+v", m)
	}
}

// TestBoundedCorpusConcurrent hammers a small bound from many goroutines
// (run under -race in CI): whatever interleaving, every returned graph must
// be structurally correct and the entry count must respect the limit once
// the dust settles.
func TestBoundedCorpusConcurrent(t *testing.T) {
	const limit = 4
	c := NewBoundedCorpus(limit)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n := 5 + (w+i)%10
				g := cachedPath(c, n)
				if g.N() != n {
					errs <- fmt.Errorf("worker %d: Path(%d) has %d nodes", w, n, g.N())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Entries > limit {
		t.Fatalf("entries %d exceed limit %d after quiescence: %+v", m.Entries, limit, m)
	}
}
