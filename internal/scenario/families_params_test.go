package scenario

import (
	"slices"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
)

// TestCorpusNewFamilies builds the ba, geometric and smallworld families
// through one corpus: a repeated spec must hit the entry its first build
// made, and a spec differing only in beta must get its own entry.
func TestCorpusNewFamilies(t *testing.T) {
	c := graph.NewCorpus()
	build := func(gs GraphSpec) *graph.Graph {
		t.Helper()
		g, err := gs.Build(c)
		if err != nil {
			t.Fatalf("%s: %v", gs, err)
		}
		return g
	}
	ba := GraphSpec{Family: "ba", N: 64, K: 2, Seed: 3}
	if build(ba) != build(ba) {
		t.Error("corpus rebuilt an identical preferential-attachment key")
	}
	geo := GraphSpec{Family: "geometric", N: 64, Radius: 0.2, Seed: 3}
	if build(geo) != build(geo) {
		t.Error("corpus rebuilt an identical geometric key")
	}
	ws1 := build(GraphSpec{Family: "smallworld", N: 64, K: 4, Beta: 0.2, Seed: 3})
	ws2 := build(GraphSpec{Family: "smallworld", N: 64, K: 4, Beta: 0.1, Seed: 3})
	if ws1 == ws2 {
		t.Error("different beta shares a corpus entry")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 4 {
		t.Errorf("stats = (%d hits, %d misses), want (2, 4)", hits, misses)
	}
}

// TestFamilyParamsTable checks String, Normalize and Validate against each
// family's declared Params: normalizing a spec with all nine parameters set
// keeps exactly the declared ones, String prints exactly those, and setting
// any other parameter on a valid spec is rejected by name.
func TestFamilyParamsTable(t *testing.T) {
	full := GraphSpec{N: 64, Rows: 8, Cols: 8, D: 4, K: 2, P: 0.05, Radius: 0.1, Beta: 0.1, Seed: 1}
	for _, f := range Families() {
		var declared []string
		for _, item := range strings.Split(f.Params, ", ") {
			name, _, _ := strings.Cut(item, " ")
			declared = append(declared, name)
		}
		gs := full
		gs.Family = f.Name
		gs = Normalize(gs)
		var printed []string
		list := strings.TrimSuffix(strings.TrimPrefix(gs.String(), f.Name+"("), ")")
		for _, item := range strings.Split(list, ", ") {
			name, _, _ := strings.Cut(item, "=")
			printed = append(printed, name)
		}
		slices.Sort(declared)
		slices.Sort(printed)
		if !slices.Equal(declared, printed) {
			t.Errorf("%s: normalized spec %s prints %v, family declares %v", f.Name, gs, printed, declared)
		}

		if valid := defaultFamilySpec(f.Name); gs != valid {
			t.Fatalf("%s: normalized spec %s, want the default %s", f.Name, gs, valid)
		}
		if err := gs.Validate(); err != nil {
			t.Fatalf("%s: %v", gs, err)
		}
		for i, p := range params {
			if slices.Contains(declared, p.name) {
				continue
			}
			// The valid spec plus parameter i, set to its value in full.
			bad := full
			bad.Family = f.Name
			for j, q := range params {
				if j != i && !slices.Contains(declared, q.name) {
					q.clear(&bad)
				}
			}
			err := bad.Validate()
			if err == nil || !strings.Contains(err.Error(), "takes no "+p.name+" parameter") {
				t.Errorf("%s: Validate = %v, want a 'takes no %s parameter' error", bad, err, p.name)
			}
		}
	}
}
