package graph

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Corpus memoizes generated graphs and their ID perturbations. The
// benchmark harness runs hundreds of simulations that keep asking for the
// same topologies — the same GNP(n, p, seed) appears in several experiments —
// and regenerating them per experiment wastes the time the sweep scheduler
// saves. A built Graph is immutable and safe for concurrent use, so one
// cached instance can back any number of concurrent runs.
//
// Generated graphs are keyed by (family, params, seed) via CorpusKey and
// built by the generator the caller hands Get; the scenario layer's family
// table declares each family's key and generator. The ID perturbations
// (ShuffledIDsOf, ClusteredIDsOf) are derived entries, keyed by the
// identity of their (cached, canonical) source graph. All methods are safe
// for concurrent use; concurrent requests for a missing entry build it
// exactly once (other callers block until it is ready without holding the
// corpus lock).
//
// A corpus from NewCorpus is unbounded — correct for one-shot harnesses,
// fatal for a long-lived server that would otherwise retain every graph
// family any client ever requested. NewBoundedCorpus caps the entry count
// with LRU eviction: entries fall out least-recently-used first, and
// evicting a generated graph also drops the derived entries keyed by
// its identity (their canonical source pointer can never be requested
// again, so they would otherwise be unreachable dead weight). An evicted
// graph that is requested again is simply rebuilt — generators are
// deterministic, so the rebuilt instance is structurally identical and
// results stay byte-for-byte reproducible across evictions. SetMemLimit
// adds an orthogonal byte-denominated bound over the entries' estimated
// heap footprint, the bound that matters once individual graphs dwarf any
// entry count.
//
// AttachStore adds the disk tier (DESIGN.md §2.11): generated-graph misses
// first try Store.Load (an mmap'ed image is near-free in both time and
// heap), and fresh builds are persisted best-effort with Store.Save. The
// memory LRU is unchanged by the store — an evicted entry that is requested
// again reloads from disk instead of regenerating, and a corrupt or missing
// image silently falls back to the generator. Derived entries are not
// stored: they are keyed by source-graph pointer, cheap relative to
// generation, and reconstructible from a stored source.
type Corpus struct {
	mu sync.Mutex
	// entries holds generated graphs under their CorpusKey and derived
	// entries under their derivedKey.
	entries map[any]*corpusEntry
	// limit caps len(entries); 0 means unbounded. lru orders all entries
	// most recently used first (values are *corpusEntry).
	limit int
	lru   *list.List
	// memLimit bounds memBytes, the summed HeapBytes of built entries;
	// 0 means unbounded. Guarded by mu like entries.
	memLimit  int64
	memBytes  int64
	hits      uint64
	misses    uint64
	evictions uint64

	// store is the optional disk tier; atomic so Get's build closures read
	// it without holding mu.
	store atomic.Pointer[Store]
}

// CorpusStats is a point-in-time snapshot of a corpus's cache behaviour,
// exported by long-lived owners (the serving layer's /metrics).
type CorpusStats struct {
	// Hits and Misses count lookups served from the cache vs built.
	Hits, Misses uint64
	// Evictions counts entries dropped by the LRU bound (including derived
	// entries cascaded out with their evicted source).
	Evictions uint64
	// Entries is the current number of cached graphs; Limit is the bound (0
	// means unbounded).
	Entries, Limit int
	// MemBytes is the estimated heap footprint of the cached graphs;
	// MemLimit is the byte bound (0 means unbounded).
	MemBytes, MemLimit int64
	// DiskEnabled reports whether a store is attached; Disk is its counters
	// (zero value when no store).
	DiskEnabled bool
	Disk        StoreStats
}

// CorpusKey identifies a generated graph: the family name, up to two integer
// parameters, one float parameter (stored as bits so keys stay comparable)
// and the generator seed.
type CorpusKey struct {
	Family string
	A, B   int64
	F      uint64
	Seed   int64
}

// derivedKey identifies an ID perturbation by its source graph's identity
// plus the perturbation's own parameters. Pointer keying is sound
// because graphs are immutable and the corpus hands out one canonical
// instance per generated key.
type derivedKey struct {
	src  *Graph
	op   string
	k    int
	a, b int64
}

// corpusEntry carries one built graph. The per-entry once lets concurrent
// first requests build without serializing unrelated builds behind the
// corpus lock.
type corpusEntry struct {
	once sync.Once
	g    *Graph
	err  error
	// built flips to true after once completes; eviction skips entries still
	// building (their graph pointer is not out yet, and removing them would
	// duplicate an in-flight build for no memory gain).
	built atomic.Bool
	// bytes is the entry's estimated heap footprint, accounted into
	// Corpus.memBytes when the build completes and out again on drop.
	// Guarded by Corpus.mu.
	bytes int64
	// LRU bookkeeping, guarded by Corpus.mu. key is the entry's slot in
	// Corpus.entries, a CorpusKey or a derivedKey.
	elem *list.Element
	key  any
}

// NewCorpus returns an empty, unbounded corpus.
func NewCorpus() *Corpus {
	return NewBoundedCorpus(0)
}

// NewBoundedCorpus returns an empty corpus holding at most limit graphs
// (generated plus derived), evicting least-recently-used entries beyond it.
// limit <= 0 means unbounded.
func NewBoundedCorpus(limit int) *Corpus {
	if limit < 0 {
		limit = 0
	}
	return &Corpus{
		entries: make(map[any]*corpusEntry),
		limit:   limit,
		lru:     list.New(),
	}
}

// AttachStore connects the on-disk CSR image tier. Call once, before the
// corpus starts serving; attaching mid-flight is safe (requests race to see
// the store or not) but pointless.
func (c *Corpus) AttachStore(s *Store) {
	c.store.Store(s)
}

// SetMemLimit bounds the estimated heap bytes of cached graphs; entries
// beyond it are LRU-evicted exactly like the entry-count bound. bytes <= 0
// means unbounded. Call before the corpus starts serving.
func (c *Corpus) SetMemLimit(bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes < 0 {
		bytes = 0
	}
	c.memLimit = bytes
}

// Stats returns how many lookups were served from the cache and how many had
// to build.
func (c *Corpus) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Metrics returns the full cache counters, including evictions and the
// current entry count.
func (c *Corpus) Metrics() CorpusStats {
	c.mu.Lock()
	st := CorpusStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Limit:     c.limit,
		MemBytes:  c.memBytes,
		MemLimit:  c.memLimit,
	}
	c.mu.Unlock()
	if s := c.store.Load(); s != nil {
		st.DiskEnabled = true
		st.Disk = s.Stats()
	}
	return st
}

// touch moves e to the front of the LRU list, linking it on first use.
// Caller holds c.mu.
func (c *Corpus) touch(e *corpusEntry) {
	if e.elem == nil {
		e.elem = c.lru.PushFront(e)
	} else {
		c.lru.MoveToFront(e.elem)
	}
}

// drop removes e from its map and the LRU list, releases its byte account
// and counts the eviction. Caller holds c.mu.
func (c *Corpus) drop(e *corpusEntry) {
	c.lru.Remove(e.elem)
	e.elem = nil
	delete(c.entries, e.key)
	c.memBytes -= e.bytes
	c.evictions++
}

// overLimit reports whether either bound — entry count or estimated heap
// bytes — is exceeded. Caller holds c.mu.
func (c *Corpus) overLimit() bool {
	if c.limit > 0 && len(c.entries) > c.limit {
		return true
	}
	return c.memLimit > 0 && c.memBytes > c.memLimit
}

// evict enforces the entry and byte bounds after an insert or a completed
// build, walking from the LRU tail. Entries still building are skipped
// (their pointer is not public yet), as is keep, the entry just inserted.
// Evicting a generated graph cascades to the derived entries keyed by its
// identity: once the canonical source instance leaves the map, those keys
// can never be requested again. Caller holds c.mu.
func (c *Corpus) evict(keep *corpusEntry) {
	if c.limit <= 0 && c.memLimit <= 0 {
		return
	}
	el := c.lru.Back()
	for c.overLimit() && el != nil {
		e := el.Value.(*corpusEntry)
		if e == keep || !e.built.Load() {
			el = el.Prev()
			continue
		}
		c.drop(e)
		if _, generated := e.key.(CorpusKey); generated && e.g != nil {
			for k, de := range c.entries {
				// The cascade honours the same guards as the walk: never the
				// entry being inserted (it would vanish before ever serving a
				// hit) and never one still building. A spared derived entry
				// keeps its dead source key and simply ages out by LRU.
				if dk, ok := k.(derivedKey); ok && dk.src == e.g && de != keep && de.built.Load() {
					c.drop(de)
				}
			}
		}
		// The cascade may have removed the walk cursor's neighbours, so
		// restart from the back; every restart follows a drop, so the loop
		// still terminates.
		el = c.lru.Back()
	}
}

// entry returns the memo slot for key (a CorpusKey or a derivedKey),
// creating it on miss.
func (c *Corpus) entry(key any) *corpusEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &corpusEntry{key: key}
		c.entries[key] = e
		c.misses++
		c.touch(e)
		c.evict(e)
	} else {
		c.hits++
		c.touch(e)
	}
	return e
}

// runBuild runs e's once-guarded construction, then — exactly once, under
// the corpus lock — accounts the entry's heap bytes, marks it evictable and
// re-enforces the bounds (a just-built huge graph can push the byte budget
// over even though the insert already ran evict). The construction itself
// runs without the lock, so unrelated builds never serialize.
func (c *Corpus) runBuild(e *corpusEntry, fn func()) {
	e.once.Do(fn)
	if e.built.Load() {
		return
	}
	c.mu.Lock()
	if !e.built.Load() {
		if e.g != nil {
			e.bytes = e.g.HeapBytes()
			c.memBytes += e.bytes
		}
		e.built.Store(true)
		c.evict(e)
	}
	c.mu.Unlock()
}

// Get memoizes a generated graph under key, building it with build on
// first request. The key must determine the graph: the store
// content-addresses images by it (ImageName).
//
// With a store attached, a miss consults the disk tier before generating
// (the image was checksum-verified, so a load is as good as a build), and a
// fresh build is persisted best-effort — a Save failure (full disk,
// read-only directory) costs nothing but the warm start.
func (c *Corpus) Get(key CorpusKey, build func() (*Graph, error)) (*Graph, error) {
	e := c.entry(key)
	c.runBuild(e, func() {
		if s := c.store.Load(); s != nil {
			if g, ok := s.Load(key); ok {
				e.g = g
				return
			}
			e.g, e.err = build()
			if e.err == nil {
				s.Save(key, e.g)
			}
			return
		}
		e.g, e.err = build()
	})
	return e.g, e.err
}

// ShuffledIDsOf returns the cached WithShuffledIDs perturbation of g. Like
// ClusteredIDsOf it is keyed by the identity of the source graph, so the
// scenario layer's ID regimes reuse one perturbed instance per (graph,
// maxID, seed).
func (c *Corpus) ShuffledIDsOf(g *Graph, maxID, seed int64) (*Graph, error) {
	e := c.entry(derivedKey{src: g, op: "shuffled-ids", a: maxID, b: seed})
	c.runBuild(e, func() { e.g, e.err = WithShuffledIDs(g, maxID, seed) })
	return e.g, e.err
}

// ClusteredIDsOf returns the cached WithClusteredIDs perturbation of g.
func (c *Corpus) ClusteredIDsOf(g *Graph, clusters int, maxID, seed int64) (*Graph, error) {
	e := c.entry(derivedKey{src: g, op: "clustered-ids", k: clusters, a: maxID, b: seed})
	c.runBuild(e, func() { e.g, e.err = WithClusteredIDs(g, clusters, maxID, seed) })
	return e.g, e.err
}
