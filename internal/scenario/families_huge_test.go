package scenario

import (
	"os"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
)

// hugeN picks the big-graph test size: 10^7 nodes when the operator opts in
// with UNILOCAL_HUGE=1 (minutes of generation, hundreds of MB of CSR),
// otherwise a CI-friendly size that still dwarfs the memory budget below,
// shrunk further under -short.
func hugeN(t *testing.T) int {
	t.Helper()
	if os.Getenv("UNILOCAL_HUGE") == "1" {
		return 10_000_000
	}
	if testing.Short() {
		return 1 << 16
	}
	return 1 << 18
}

// TestHugeFamiliesValidate pins the huge-* parameter ranges, including the
// int32 node-index ceiling the CSR layout imposes.
func TestHugeFamiliesValidate(t *testing.T) {
	valid := []GraphSpec{
		{Family: "huge-geometric", N: 1 << 20, D: 8, Seed: 1},
		{Family: "huge-ba", N: 1 << 20, K: 4, Seed: 1},
	}
	for _, gs := range valid {
		if err := gs.Validate(); err != nil {
			t.Errorf("%s: %v", gs, err)
		}
	}
	invalid := []GraphSpec{
		{Family: "huge-geometric", N: 0, D: 8},
		{Family: "huge-geometric", N: 100, D: 0},
		{Family: "huge-geometric", N: 100, D: 100},
		{Family: "huge-geometric", N: 100, D: 8, Radius: 0.5}, // takes no radius
		{Family: "huge-ba", N: 100, K: 0},
		{Family: "huge-ba", N: 100, K: 100},
		{Family: "huge-ba", N: 100, K: 3, P: 0.5}, // takes no p
	}
	if maxN := int64(graph.MaxID) + 1; int64(int(maxN)) == maxN {
		// 64-bit int: an n beyond the int32 index space must be rejected.
		invalid = append(invalid,
			GraphSpec{Family: "huge-geometric", N: int(maxN), D: 8},
			GraphSpec{Family: "huge-ba", N: int(maxN), K: 4})
	}
	for _, gs := range invalid {
		if err := gs.Validate(); err == nil {
			t.Errorf("%s: validated, want error", gs)
		}
	}
}

// TestHugeGeometricSharesImage pins the delegation contract: a huge-geometric
// spec builds through the plain geometric corpus key, so its derived-radius
// graph and a literal geometric spec with that radius share one corpus entry
// (and therefore one CSR image on disk).
func TestHugeGeometricSharesImage(t *testing.T) {
	c := graph.NewCorpus()
	huge := GraphSpec{Family: "huge-geometric", N: 2000, D: 6, Seed: 4}
	g1, err := huge.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GraphSpec{Family: "geometric", N: 2000, Radius: hugeGeomRadius(2000, 6), Seed: 4}.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("huge-geometric did not reuse the geometric corpus entry")
	}
	avg := 2 * float64(g1.NumEdges()) / float64(g1.N())
	if avg < 3 || avg > 9 {
		t.Fatalf("derived radius misses the degree target: average degree %.2f, want ~6", avg)
	}
}

// TestHugeScenarioMemoryBudget is the big-graph regime end to end: a huge-*
// spec generates CSR-direct, persists its image, and a restarted (fresh)
// corpus under a byte budget far below the raw CSR size serves it from the
// disk tier without regenerating. At the default CI size this runs in
// seconds; UNILOCAL_HUGE=1 runs the full 10^7-node version.
func TestHugeScenarioMemoryBudget(t *testing.T) {
	n := hugeN(t)
	spec := GraphSpec{Family: "huge-geometric", N: n, D: 8, Seed: 1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	store, err := graph.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warmer := graph.NewCorpus()
	warmer.AttachStore(store)
	g0, err := spec.Build(warmer)
	if err != nil {
		t.Fatal(err)
	}
	if g0.N() != n {
		t.Fatalf("built %d nodes, want %d", g0.N(), n)
	}
	if st := store.Stats(); st.Written != 1 {
		t.Fatalf("huge build did not persist its image: %+v", st)
	}

	budget := g0.CSRBytes() / 16
	c := graph.NewCorpus()
	c.AttachStore(store)
	c.SetMemLimit(budget)
	g, err := spec.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != g0.N() || g.NumEdges() != g0.NumEdges() {
		t.Fatalf("disk-tier graph shape n=%d m=%d, want n=%d m=%d",
			g.N(), g.NumEdges(), g0.N(), g0.NumEdges())
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Fatalf("budgeted corpus regenerated instead of loading: %+v", st)
	}
	if m := c.Metrics(); m.MemBytes > budget {
		t.Fatalf("corpus exceeds its byte budget: %d > %d", m.MemBytes, budget)
	}
}
