package graph

import (
	"slices"
	"testing"
)

// TestWithShuffledIDsMaxIDCollisions pins the tight end of the range: with
// maxID == n every draw collides until the rejection loop has found the full
// permutation, and the result must be exactly a permutation of [1, n].
func TestWithShuffledIDsMaxIDCollisions(t *testing.T) {
	g := Grid(16, 16)
	n := g.N()
	h, err := WithShuffledIDs(g, int64(n), 5)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, h)
	ids := make([]int64, n)
	for u := 0; u < n; u++ {
		ids[u] = h.ID(u)
	}
	slices.Sort(ids)
	for i, id := range ids {
		if id != int64(i)+1 {
			t.Fatalf("sorted ids[%d] = %d, want %d: not a permutation of [1, n]", i, id, i+1)
		}
	}
	if slices.Equal(ids, identities(h)) {
		t.Error("dense shuffle left identities in sorted order (astronomically unlikely)")
	}
	if !sameEdges(g, h) {
		t.Error("shuffling ids changed the edge set")
	}
}

// TestWithShuffledIDsSparseHuge pins the sparse end used by the scenario
// layer's sparse-huge regime: identities drawn from [1, 2^40], beyond the
// pair-packing range (graphtest's TestPackingRange covers what the packing
// constructions do with them).
func TestWithShuffledIDsSparseHuge(t *testing.T) {
	g := Grid(8, 8)
	h, err := WithShuffledIDs(g, 1<<40, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, h)
	if h.MaxIDValue() <= MaxID {
		t.Fatalf("max id %d unexpectedly within the packed range for maxID 2^40", h.MaxIDValue())
	}
	if h.MaxIDValue() > 1<<40 {
		t.Fatalf("max id %d exceeds requested range 2^40", h.MaxIDValue())
	}
	if !sameEdges(g, h) {
		t.Error("shuffling ids changed the edge set")
	}
}

func TestWithShuffledIDsRange(t *testing.T) {
	g := Path(10)
	if _, err := WithShuffledIDs(g, 9, 1); err == nil {
		t.Error("maxID < n not rejected")
	}
	if _, err := WithShuffledIDs(g, MaxPackedID+1, 1); err == nil {
		t.Error("maxID > MaxPackedID not rejected")
	}
	if _, err := WithShuffledIDs(g, MaxPackedID, 1); err != nil {
		t.Errorf("maxID == MaxPackedID rejected: %v", err)
	}
}

func identities(g *Graph) []int64 {
	ids := make([]int64, g.N())
	for u := 0; u < g.N(); u++ {
		ids[u] = g.ID(u)
	}
	return ids
}

func TestWithClusteredIDs(t *testing.T) {
	g := Grid(25, 10) // n = 250: 7 full blocks of 32 plus one partial
	n := g.N()
	const clusters = 8
	maxID := int64(1) << 30
	h, err := WithClusteredIDs(g, clusters, maxID, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, h)
	if !sameEdges(g, h) {
		t.Error("clustering ids changed the edge set")
	}
	ids := identities(h)
	slices.Sort(ids)
	if ids[0] < 1 || ids[n-1] > maxID {
		t.Fatalf("ids out of [1, maxID]: min %d max %d", ids[0], ids[n-1])
	}
	width := int64((n + clusters - 1) / clusters)
	runs := 1
	runLen := int64(1)
	for i := 1; i < n; i++ {
		if ids[i] == ids[i-1]+1 {
			runLen++
			if runLen > width {
				t.Fatalf("consecutive identity run longer than block width %d", width)
			}
			continue
		}
		runs++
		runLen = 1
	}
	if runs != clusters {
		t.Fatalf("found %d consecutive-id blocks, want %d", runs, clusters)
	}
	again, err := WithClusteredIDs(g, clusters, maxID, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(identities(h), identities(again)) {
		t.Fatal("same seed produced different clustered assignments")
	}

	if _, err := WithClusteredIDs(g, 0, maxID, 1); err == nil {
		t.Error("clusters = 0 not rejected")
	}
	// maxID >= n but slots too small for a full block: n=250, 8 clusters of
	// width 32 need slots >= 32, maxID 250 gives slots of 31.
	if _, err := WithClusteredIDs(g, clusters, int64(n), 1); err == nil {
		t.Error("slot smaller than block width not rejected")
	}
	// clusters > n clamps to n (every block a singleton).
	many, err := WithClusteredIDs(Path(5), 100, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, many)
}

func TestCorpusIDPerturbations(t *testing.T) {
	c := NewCorpus()
	g := cachedPath(c, 64)
	s1, err := c.ShuffledIDsOf(g, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.ShuffledIDsOf(g, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("corpus rebuilt an identical shuffled-ids key")
	}
	s3, err := c.ShuffledIDsOf(g, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s3 {
		t.Error("different shuffle seeds share a corpus entry")
	}
	c1, err := c.ClusteredIDsOf(g, 4, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.ClusteredIDsOf(g, 4, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("corpus rebuilt an identical clustered-ids key")
	}
}
