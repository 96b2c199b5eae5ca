package graph_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/digest"
	"github.com/unilocal/unilocal/internal/graph"
)

// csrDigest hashes a graph's shape and every CSR array the engine
// addresses: identities, adjacency offsets, neighbours, back ports and
// reverse edges.
func csrDigest(g *graph.Graph) string {
	h := sha256.New()
	put := func(v int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
	put(int64(g.N()))
	put(int64(g.NumEdges()))
	put(int64(g.MaxDegree()))
	put(g.MaxIDValue())
	for u := 0; u < g.N(); u++ {
		put(g.ID(u))
		put(int64(g.AdjOffset(u)))
		rev := g.ReverseEdges(u)
		for k, v := range g.Neighbors(u) {
			put(int64(v))
			put(int64(g.BackPort(u, k)))
			put(int64(rev[k]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins the streaming CSR-direct generators: corpus
// keys, committed experiment tables and content-addressed store images all
// assume a (family, params, seed) names one immutable graph forever. Each
// parameter triple's graph must hash to its entry in
// testdata/generator_digests.json, which was generated while the
// Builder-based generators they replaced were still checked against them
// array by array. Regenerate the table only when a generator is meant to
// change its output:
//
//	go test ./internal/graph -run TestGeneratorDigests -update
func TestGeneratorDigests(t *testing.T) {
	tab := digest.Open[string](t, "testdata/generator_digests.json")
	add := func(name string, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab.Add(name, csrDigest(g))
	}
	for _, tc := range []struct {
		n, m int
		seed int64
	}{
		{2, 1, 1}, {10, 1, 1}, {50, 2, 3}, {200, 3, 7}, {500, 5, 11}, {64, 8, 42},
	} {
		g, err := graph.PreferentialAttachment(tc.n, tc.m, tc.seed)
		add(fmt.Sprintf("ba/n=%d,m=%d,seed=%d", tc.n, tc.m, tc.seed), g, err)
	}
	for _, tc := range []struct {
		n    int
		r    float64
		seed int64
	}{
		{0, 0.5, 1}, {1, 0.5, 1}, {10, 0.9, 2}, {100, 0.2, 3},
		{512, 0.07, 2}, {300, 0.01, 5}, {64, 1, 9},
	} {
		g, err := graph.RandomGeometric(tc.n, tc.r, tc.seed)
		add(fmt.Sprintf("geometric/n=%d,r=%v,seed=%d", tc.n, tc.r, tc.seed), g, err)
	}
	tab.Close()
}
