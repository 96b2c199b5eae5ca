package graph

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"testing"
)

// storeTestGraphs builds one representative graph per generator shape —
// random families, a deterministic family, and the single-node/no-edge
// edge case — each under the corpus key its family would use.
func storeTestGraphs(t *testing.T) map[CorpusKey]*Graph {
	t.Helper()
	gnp, err := GNP(200, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := RandomGeometric(256, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := PreferentialAttachment(300, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := Cycle(50)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := GNP(benchStoreN, benchStoreP(), benchStoreSeed)
	if err != nil {
		t.Fatal(err)
	}
	return map[CorpusKey]*Graph{
		{Family: "gnp", A: 200, F: 42, Seed: 3}:       gnp,
		{Family: "geometric", A: 256, F: 43, Seed: 2}: geo,
		{Family: "ba", A: 300, B: 3, Seed: 7}:         ba,
		{Family: "cycle", A: 50}:                      cyc,
		{Family: "path", A: 1}:                        Path(1),
		{Family: "gnp", A: benchStoreN, F: math.Float64bits(benchStoreP()), Seed: benchStoreSeed}: bench,
	}
}

// Pinned shape of BenchmarkCorpusColdVsWarm's graph and its image, so the
// pair that benchmark times cannot drift unnoticed.
const (
	benchStoreEdges      = 65451
	benchStoreImageBytes = 1771532
)

// TestStoreRoundTrip pins the disk tier's core contract: Save then Load
// reproduces every observable field of the graph, including the derived CSR
// tables and byte estimates, for every generator shape.
func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	graphs := storeTestGraphs(t)
	for key, g := range graphs {
		if err := s.Save(key, g); err != nil {
			t.Fatalf("%s: save: %v", key.Family, err)
		}
	}
	// Saving again must be a no-op: images are content-addressed.
	written := s.Stats().Written
	for key, g := range graphs {
		if err := s.Save(key, g); err != nil {
			t.Fatalf("%s: re-save: %v", key.Family, err)
		}
	}
	if got := s.Stats().Written; got != written {
		t.Fatalf("re-save wrote images: %d -> %d", written, got)
	}
	for key, g := range graphs {
		got, ok := s.Load(key)
		if !ok {
			t.Fatalf("%s: image missing after save", key.Family)
		}
		requireSameGraph(t, g, got)
	}
	st := s.Stats()
	if st.Hits != uint64(len(graphs)) || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("stats after roundtrip: %+v", st)
	}
	if mmapSupported && st.BytesMapped == 0 {
		t.Fatal("mmap supported but no bytes mapped")
	}
	images, err := s.Images()
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != len(graphs) {
		t.Fatalf("store lists %d images, want %d", len(images), len(graphs))
	}
	pinned := false
	for _, img := range images {
		pinned = pinned || img.Nodes == benchStoreN && img.Edges == benchStoreEdges && img.Bytes == benchStoreImageBytes
	}
	if !pinned {
		t.Errorf("no image of %d nodes, %d edges, %d bytes (BenchmarkCorpusColdVsWarm's graph) in %+v",
			benchStoreN, benchStoreEdges, benchStoreImageBytes, images)
	}
}

// TestStoreLoadMissing pins that an absent image is a plain miss — no error,
// no corruption count.
func TestStoreLoadMissing(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := s.Load(CorpusKey{Family: "nope", A: 5}); ok || g != nil {
		t.Fatalf("load of missing image returned %v, %v", g, ok)
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats after missing load: %+v", st)
	}
}

// TestStoreRejectsBadImages corrupts a valid image every way the format
// defends against and checks each one loads as a miss (never a crash, never
// bad data), is counted corrupt, and is removed so a later Save rewrites it.
func TestStoreRejectsBadImages(t *testing.T) {
	key := CorpusKey{Family: "gnp", A: 64, Seed: 9}
	g, err := GNP(64, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(img []byte) {
		binary.LittleEndian.PutUint32(img[hdrOffHeaderCRC:],
			crc32.Checksum(img[:hdrOffHeaderCRC], castagnoli))
	}
	cases := []struct {
		name    string
		corrupt func(img []byte) []byte
	}{
		{"truncated-payload", func(img []byte) []byte { return img[:imageHeaderSize+10] }},
		{"short-header", func(img []byte) []byte { return img[:100] }},
		{"flipped-payload-byte", func(img []byte) []byte {
			img[imageHeaderSize+17] ^= 0x40
			return img
		}},
		{"bad-magic", func(img []byte) []byte {
			img[0] ^= 0xff
			return img
		}},
		{"wrong-version", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[hdrOffVersion:], 99)
			reseal(img)
			return img
		}},
		{"foreign-byte-order", func(img []byte) []byte {
			for i := 0; i < 4; i++ {
				img[8+i], img[15-i] = img[15-i], img[8+i]
			}
			reseal(img)
			return img
		}},
		{"header-counts-lie", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[hdrOffN:], 1<<40)
			reseal(img)
			return img
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Save(key, g); err != nil {
				t.Fatal(err)
			}
			path := s.ImagePath(key)
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(img), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Load(key); ok || got != nil {
				t.Fatalf("corrupted image loaded: %v, %v", got, ok)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt image not counted: %+v", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt image not removed: stat err %v", err)
			}
			// The tier must self-heal: a corpus backed by this store falls back
			// to regeneration and Save repopulates the image.
			c := NewCorpus()
			c.AttachStore(s)
			got, err := c.Get(key, func() (*Graph, error) { return GNP(64, 0.1, 9) })
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, g, got)
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("image not rewritten after fallback: %v", err)
			}
		})
	}
}

// TestCorpusDiskTierWarmStart pins the two-tier behaviour across process
// "restarts" (fresh Corpus values sharing one store directory): the first
// corpus generates and persists, the second loads from disk without ever
// invoking its builder, and both hand out identical graphs.
func TestCorpusDiskTierWarmStart(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CorpusKey{Family: "warmstart", A: 128, Seed: 5}
	build := func() (*Graph, error) { return GNP(128, 0.1, 5) }

	cold := NewCorpus()
	cold.AttachStore(s)
	builds := 0
	g1, err := cold.Get(key, func() (*Graph, error) { builds++; return build() })
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("cold corpus built %d times, want 1", builds)
	}
	if st := s.Stats(); st.Written != 1 {
		t.Fatalf("cold build did not persist: %+v", st)
	}

	warm := NewCorpus()
	warm.AttachStore(s)
	g2, err := warm.Get(key, func() (*Graph, error) {
		t.Fatal("warm corpus regenerated despite a valid image")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, g1, g2)
	if st := s.Stats(); st.Hits != 1 {
		t.Fatalf("warm start did not hit the disk tier: %+v", st)
	}
	m := warm.Metrics()
	if !m.DiskEnabled || m.Disk.Hits != 1 {
		t.Fatalf("corpus metrics missing disk tier: %+v", m)
	}
	// A second request on the warm corpus is a memory hit, not a disk load.
	if g3, err := warm.Get(key, build); err != nil || g3 != g2 {
		t.Fatalf("memory hit returned %v, %v", g3, err)
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Fatalf("memory hit reached the disk tier: %+v", st)
	}
}

// TestBoundedCorpusReloadsFromDisk pins the eviction interplay: with the
// disk tier attached, an entry pushed out of the in-memory LRU comes back
// via a disk load, not a regeneration.
func TestBoundedCorpusReloadsFromDisk(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewBoundedCorpus(1)
	c.AttachStore(s)
	keyA := CorpusKey{Family: "evictee", A: 40}
	keyB := CorpusKey{Family: "other", A: 41}
	buildsA := 0
	a1, err := c.Get(keyA, func() (*Graph, error) { buildsA++; return GNP(40, 0.2, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(keyB, func() (*Graph, error) { return GNP(41, 0.2, 1) }); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Evictions != 1 {
		t.Fatalf("limit-1 corpus kept both entries: %+v", m)
	}
	a2, err := c.Get(keyA, func() (*Graph, error) {
		t.Fatal("evicted entry regenerated despite its on-disk image")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if buildsA != 1 {
		t.Fatalf("entry built %d times, want 1", buildsA)
	}
	requireSameGraph(t, a1, a2)
	if st := s.Stats(); st.Hits != 1 {
		t.Fatalf("eviction reload bypassed the disk tier: %+v", st)
	}
}

// TestCorpusMemLimitDiskBacked is the memory-budget guarantee: with the disk
// tier attached and a byte budget far below the raw CSR size, a big graph is
// still servable — the mmap-backed view costs the budget almost nothing, so
// the entry stays resident instead of thrashing. Sized down under -short.
func TestCorpusMemLimitDiskBacked(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform: loaded images are heap-resident, so the byte budget cannot hold a bigger-than-budget graph")
	}
	n := 1 << 19
	if testing.Short() {
		n = 1 << 16
	}
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := CorpusKey{Family: "big", A: int64(n), Seed: 1}
	build := func() (*Graph, error) { return GNP(n, 8/float64(n-1), 1) }

	// Pre-warm the store in a throwaway corpus, as a fleet's graphgen would.
	warmer := NewCorpus()
	warmer.AttachStore(s)
	g0, err := warmer.Get(key, build)
	if err != nil {
		t.Fatal(err)
	}
	raw := g0.CSRBytes()

	const budget = 1 << 20 // 1 MiB, far below the multi-MB raw CSR
	if raw < 4*budget {
		t.Fatalf("test graph too small to prove anything: CSR %d bytes vs budget %d", raw, budget)
	}
	c := NewCorpus()
	c.AttachStore(s)
	c.SetMemLimit(budget)
	g, err := c.Get(key, func() (*Graph, error) {
		t.Fatal("budgeted corpus regenerated despite a valid image")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != n || g.NumEdges() != g0.NumEdges() {
		t.Fatalf("loaded graph shape n=%d m=%d, want n=%d m=%d", g.N(), g.NumEdges(), n, g0.NumEdges())
	}
	if hb := g.HeapBytes(); hb >= budget {
		t.Fatalf("mapped graph reports %d heap bytes, want below the %d budget", hb, budget)
	}
	m := c.Metrics()
	if m.MemBytes > m.MemLimit || m.MemLimit != budget {
		t.Fatalf("budget exceeded: %+v", m)
	}
	// The entry must be resident: a repeat request is a memory hit on the
	// same instance, not another disk load.
	diskHits := s.Stats().Hits
	g2, err := c.Get(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g || s.Stats().Hits != diskHits {
		t.Fatal("bigger-than-budget mapped graph was evicted from the budgeted corpus")
	}
}
