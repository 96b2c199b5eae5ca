package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/coloralgo"
	"github.com/unilocal/unilocal/internal/algorithms/edgecolor"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/sweep"
)

func validSpec() *Spec {
	return &Spec{
		Name:      "test-mis",
		Graph:     GraphSpec{Family: "cycle", N: 64},
		Algorithm: AlgoSpec{Name: "uniform-mis-delta"},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"bad name", func(s *Spec) { s.Name = "Bad Name" }},
		{"unknown family", func(s *Spec) { s.Graph.Family = "nope" }},
		{"cycle too small", func(s *Spec) { s.Graph.N = 2 }},
		{"unused graph param", func(s *Spec) { s.Graph.P = 0.5 }},
		{"n on hypercube", func(s *Spec) { s.Graph = GraphSpec{Family: "hypercube", N: 1024} }},
		{"ids seed on default regime", func(s *Spec) { s.IDs = IDSpec{Seed: 3} }},
		{"unknown algorithm", func(s *Spec) { s.Algorithm.Name = "nope" }},
		{"missing lambda", func(s *Spec) { s.Algorithm = AlgoSpec{Name: "uniform-lambda-coloring"} }},
		{"stray lambda", func(s *Spec) { s.Algorithm.Lambda = 2 }},
		{"stray beta", func(s *Spec) { s.Algorithm.Beta = 2 }},
		{"missing beta", func(s *Spec) { s.Algorithm = AlgoSpec{Name: "lasvegas-rulingset"} }},
		{"bad baseline", func(s *Spec) { s.Baseline = &AlgoSpec{Name: "nope"} }},
		{"unknown regime", func(s *Spec) { s.IDs.Regime = "nope" }},
		{"max_id on dense", func(s *Spec) { s.IDs = IDSpec{Regime: RegimeDense, MaxID: 100} }},
		{"clusters on sparse", func(s *Spec) { s.IDs = IDSpec{Regime: RegimeSparseHuge, Clusters: 4} }},
		{"duplicate seeds", func(s *Spec) { s.Seeds = []int64{1, 2, 1} }},
		{"negative repeat", func(s *Spec) { s.Repeat = -1 }},
		{"negative max_rounds", func(s *Spec) { s.MaxRounds = -1 }},
		{"packs-ids under sparse-huge", func(s *Spec) {
			s.Algorithm = AlgoSpec{Name: "uniform-matching"}
			s.IDs = IDSpec{Regime: RegimeSparseHuge}
		}},
		{"packs-ids baseline under sparse-huge", func(s *Spec) {
			s.Baseline = &AlgoSpec{Name: "nonuniform-matching"}
			s.IDs = IDSpec{Regime: RegimeSparseHuge}
		}},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: not rejected", c.name)
		}
	}
}

func TestLoadFileStrict(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ok := write("ok.json", `{"name": "ok", "graph": {"family": "path", "n": 8}, "algorithm": {"name": "luby-mis"}}`)
	if _, err := LoadFile(ok); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	typo := write("typo.json", `{"name": "typo", "graph": {"family": "path", "n": 8}, "algorithm": {"name": "luby-mis"}, "sseeds": [1]}`)
	if _, err := LoadFile(typo); err == nil {
		t.Error("unknown JSON field not rejected")
	}
	trailing := write("trailing.json", `{"name": "trailing", "graph": {"family": "path", "n": 8}, "algorithm": {"name": "luby-mis"}} {}`)
	if _, err := LoadFile(trailing); err == nil {
		t.Error("trailing data not rejected")
	}
	garbage := write("garbage.json", `{"name": "garbage", "graph": {"family": "path", "n": 8}, "algorithm": {"name": "luby-mis"}}}`)
	if _, err := LoadFile(garbage); err == nil {
		t.Error("malformed trailing garbage not rejected")
	}
}

func TestLoadDirDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	body := `{"name": "same", "graph": {"family": "path", "n": 8}, "algorithm": {"name": "luby-mis"}}`
	for _, f := range []string{"a.json", "b.json"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil {
		t.Error("duplicate scenario names not rejected")
	}
}

func TestExpandShape(t *testing.T) {
	s := validSpec()
	s.Baseline = &AlgoSpec{Name: "nonuniform-mis-delta"}
	s.Seeds = []int64{3, 5}
	s.Repeat = 2
	b, err := Expand([]*Spec{s}, ExpandOptions{SeedOffset: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Jobs) != 8 {
		t.Fatalf("expanded %d jobs, want 8 (2 seeds x 2 reps x baseline+uniform)", len(b.Jobs))
	}
	for i, m := range b.Metas {
		if m.Seed != 13 && m.Seed != 15 {
			t.Errorf("job %d: seed %d not offset by 10", i, m.Seed)
		}
		switch m.Role {
		case "baseline":
			if m.RatioOf != -1 {
				t.Errorf("baseline job %d has RatioOf %d", i, m.RatioOf)
			}
		case "uniform":
			if m.RatioOf != i-1 {
				t.Errorf("uniform job %d has RatioOf %d, want %d", i, m.RatioOf, i-1)
			}
		default:
			t.Errorf("job %d: unexpected role %q", i, m.Role)
		}
	}
}

// TestExpandSharesUniformAlgorithms pins the plan-cache sharing contract:
// two scenarios naming the same uniform algorithm must run the same value,
// while per-graph baselines are rebuilt per scenario.
func TestExpandSharesUniformAlgorithms(t *testing.T) {
	a := validSpec()
	b := validSpec()
	b.Name = "test-mis-2"
	b.Graph = GraphSpec{Family: "path", N: 32}
	batch, err := Expand([]*Spec{a, b}, ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 2 {
		t.Fatalf("expanded %d jobs, want 2", len(batch.Jobs))
	}
	if batch.AlgoBuilds != 1 || batch.AlgoShares != 1 {
		t.Errorf("builds/shares = %d/%d, want 1/1 (one shared uniform value)", batch.AlgoBuilds, batch.AlgoShares)
	}

	// Per-graph baselines must be rebuilt per scenario, never shared.
	a2 := validSpec()
	a2.Baseline = &AlgoSpec{Name: "nonuniform-mis-delta"}
	b2 := validSpec()
	b2.Name = "test-mis-2"
	b2.Graph = GraphSpec{Family: "path", N: 32}
	b2.Baseline = &AlgoSpec{Name: "nonuniform-mis-delta"}
	batch2, err := Expand([]*Spec{a2, b2}, ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if batch2.AlgoBuilds != 3 || batch2.AlgoShares != 1 {
		t.Errorf("builds/shares = %d/%d, want 3/1 (two baselines + one shared uniform)", batch2.AlgoBuilds, batch2.AlgoShares)
	}
}

// TestRenderDeterministicAcrossParallelism is the in-repo version of CI's
// scenario gate: expanding the same specs twice and sweeping once
// sequentially and once fully parallel must render byte-identical markdown.
func TestRenderDeterministicAcrossParallelism(t *testing.T) {
	specs := func() []*Spec {
		return []*Spec{
			{
				Name:      "det-mis",
				Graph:     GraphSpec{Family: "smallworld", N: 64, K: 4, Beta: 0.2, Seed: 3},
				IDs:       IDSpec{Regime: RegimeDense, Seed: 2},
				Algorithm: AlgoSpec{Name: "uniform-mis-delta"},
				Baseline:  &AlgoSpec{Name: "nonuniform-mis-delta"},
				Seeds:     []int64{1, 2},
			},
			{
				Name:      "det-luby",
				Graph:     GraphSpec{Family: "ba", N: 128, K: 2, Seed: 1},
				Algorithm: AlgoSpec{Name: "luby-mis"},
				Seeds:     []int64{1, 2, 3},
			},
		}
	}
	render := func(parallel int) string {
		b, err := Expand(specs(), ExpandOptions{})
		if err != nil {
			t.Fatal(err)
		}
		results, _ := sweep.Run(b.Jobs, sweep.Options{Parallel: parallel})
		return renderBatch(t, b, results)
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("sequential and parallel renders differ:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	// Table.Add counts every plan's jobs into the one header: det-mis runs
	// a baseline and the uniform algorithm at 2 seeds, det-luby 3 seeds.
	if want := "## Scenario corpus — 2 scenarios, 7 jobs\n"; !strings.HasPrefix(seq, want) {
		t.Errorf("document header is not %q:\n%s", want, seq)
	}
}

// TestCommittedCorpus keeps the checked-in scenario files and the code
// honest against each other: the corpus must stay >= 12 scenarios, load,
// validate and expand.
func TestCommittedCorpus(t *testing.T) {
	specs, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 12 {
		t.Fatalf("committed corpus has %d scenarios, want >= 12", len(specs))
	}
	b, err := Expand(specs, ExpandOptions{Corpus: graph.NewCorpus()})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Jobs) < len(specs) {
		t.Fatalf("corpus expanded to %d jobs for %d scenarios", len(b.Jobs), len(specs))
	}
	families := make(map[string]bool)
	regimes := make(map[string]bool)
	for _, s := range specs {
		families[s.Graph.Family] = true
		regimes[s.IDs.Regime] = true
	}
	for _, fam := range []string{"ba", "geometric", "smallworld"} {
		if !families[fam] {
			t.Errorf("committed corpus does not exercise the %s family", fam)
		}
	}
	for _, reg := range []string{RegimeDense, RegimeSparseHuge, RegimeClustered} {
		if !regimes[reg] {
			t.Errorf("committed corpus does not exercise the %s id regime", reg)
		}
	}
}

func TestRegistryTables(t *testing.T) {
	if got := len(Families()); got < 16 {
		t.Errorf("family table has %d entries, want >= 16", got)
	}
	// The registry is exactly the rows' names: every name resolves to an
	// entry of its row and role, and no entry comes from elsewhere.
	names := 0
	for _, r := range engines.Rows {
		for _, name := range []string{r.UniformName, r.BaselineName} {
			if name == "" {
				continue
			}
			names++
			e, ok := LookupAlgorithm(name)
			if !ok || e.Row.UniformName != r.UniformName || e.PerGraph != (name == r.BaselineName) {
				t.Errorf("row %s: name %s resolves to entry %q (found %v)", r.UniformName, name, e.Name, ok)
			}
		}
	}
	if got := len(Algorithms()); got != names {
		t.Errorf("algorithm registry has %d entries, the rows name %d", got, names)
	}
	fams := Families()
	for i, f := range fams {
		if f.key == nil || f.gen == nil || f.Validate == nil {
			t.Errorf("family %s is missing a key, generator or validator", f.Name)
		}
		if i > 0 && fams[i-1].Name >= f.Name {
			t.Errorf("family table is not sorted by name at %s", f.Name)
		}
	}
}

// starColoring colors a star's leaves 1 and its centre centre.
func starColoring(g *graph.Graph, centre int) []any {
	out := make([]any, g.N())
	for u := range out {
		out[u] = 1
		if g.Degree(u) > 1 {
			out[u] = centre
		}
	}
	return out
}

// starEdgeColoring colors a star's edges 1, 2, … in the centre's port
// order, the last one c, as per-port outputs.
func starEdgeColoring(g *graph.Graph, c int) []any {
	out := make([]any, g.N())
	for u := range out {
		if g.Degree(u) <= 1 {
			continue
		}
		colors := make([]int, g.Degree(u))
		for p := range colors {
			colors[p] = p + 1
			if p == len(colors)-1 {
				colors[p] = c
			}
			out[g.Neighbors(u)[p]] = []int{colors[p]}
		}
		out[u] = colors
	}
	return out
}

// TestUniformColoringCheckersEnforcePalette feeds the Theorem 5 coloring
// entries and both edge-coloring entries a proper coloring that uses one
// color past the entry's palette bound (core.UniformColoringPalette, or
// edgecolor.Palette of the advertised Δ̃ for the edge-coloring baseline):
// the checker must reject it, and accept the same coloring shifted back
// inside the bound.
func TestUniformColoringCheckersEnforcePalette(t *testing.T) {
	g := graph.Star(12)
	exact := engines.GraphParams(g)
	quad := func(d int) int { return core.UniformColoringPalette(engines.QuadEngine{}, d) }
	lambda := func(l int) int {
		return core.UniformColoringPalette(engines.LambdaColoringEngine{Lambda: l}, g.MaxDegree())
	}
	for _, tc := range []struct {
		as      AlgoSpec
		palette int
		color   func(*graph.Graph, int) []any
	}{
		{AlgoSpec{Name: "uniform-lambda-coloring", Lambda: 1}, lambda(1), starColoring},
		{AlgoSpec{Name: "uniform-lambda-coloring", Lambda: 4}, lambda(4), starColoring},
		{AlgoSpec{Name: "uniform-quad-coloring"}, quad(g.MaxDegree()), starColoring},
		// The line graph of a star is a clique on its Δ edges.
		{AlgoSpec{Name: "uniform-edge-coloring"}, quad(g.MaxDegree() - 1), starEdgeColoring},
		{AlgoSpec{Name: "nonuniform-edge-coloring"}, edgecolor.Palette(exact.Delta), starEdgeColoring},
	} {
		t.Run(tc.as.String(), func(t *testing.T) {
			entry := algorithms[tc.as.Name]
			var p core.Params
			if entry.PerGraph {
				p = exact
			}
			if err := entry.Check(g, p, tc.as, tc.color(g, tc.palette)); err != nil {
				t.Errorf("coloring within the palette bound %d rejected: %v", tc.palette, err)
			}
			if err := entry.Check(g, p, tc.as, tc.color(g, tc.palette+1)); err == nil {
				t.Errorf("coloring with color %d accepted, palette bound %d", tc.palette+1, tc.palette)
			}
		})
	}
}

// TestLambdaBaselineCheckerEnforcesAdvertisedPalette expands the λ-coloring
// baseline under exact and upper-bound knowledge and feeds each baseline
// job's checker a proper coloring whose centre takes the last color of
// coloralgo.LambdaPalette under the advertised Δ̃, then one past it: the
// checker must accept the first and reject the second. Under upper-bound
// knowledge the accepted color lies past the exact palette, so the checker
// must be reading the advertised parameters, not the true ones.
func TestLambdaBaselineCheckerEnforcesAdvertisedPalette(t *testing.T) {
	for _, know := range []KnowledgeSpec{
		{Regime: core.KnowExact},
		{Regime: core.KnowUpperBound, Looseness: []float64{1, 2}},
	} {
		s := &Spec{
			Name:      "test-lambda",
			Graph:     GraphSpec{Family: "star", N: 12},
			Algorithm: AlgoSpec{Name: "uniform-lambda-coloring", Lambda: 2},
			Baseline:  &AlgoSpec{Name: "nonuniform-lambda-coloring", Lambda: 2},
			Knowledge: know,
		}
		b, err := Expand([]*Spec{s}, ExpandOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g := b.Graphs[0]
		exact := coloralgo.LambdaPalette(2, g.MaxDegree())
		baselines := 0
		for i, m := range b.Metas {
			if m.Algo.Name != "nonuniform-lambda-coloring" {
				continue
			}
			baselines++
			p, err := m.Know.Advertise(engines.GraphParams(g))
			if err != nil {
				t.Fatal(err)
			}
			palette := coloralgo.LambdaPalette(2, p.Delta)
			if m.Know.Looseness == 2 && palette <= exact {
				t.Fatalf("advertised palette %d does not exceed the exact one %d", palette, exact)
			}
			if err := b.Check(i, starColoring(g, palette)); err != nil {
				t.Errorf("%s: coloring within the palette bound %d rejected: %v", b.Jobs[i].Label, palette, err)
			}
			if err := b.Check(i, starColoring(g, palette+1)); err == nil {
				t.Errorf("%s: coloring with color %d accepted, palette bound %d", b.Jobs[i].Label, palette+1, palette)
			}
		}
		if baselines == 0 {
			t.Fatalf("knowledge %+v: no baseline jobs expanded", know)
		}
	}
}
