package scenario

// Digest oracle for the committed scenario corpus: every job of every spec
// in scenarios/*.json and scenarios/knowledge/*.json (the perfbench spec
// copies are identical to these) and in scenarios/paper/ is run through the
// engine, and its Result is hashed (see internal/digest) and compared with
// the committed tables in testdata/. Each job of the first two directories
// runs at engine workers 1 and 4 and under an adversarial delivery
// permutation, and all three must give the one digest; the 46 paper specs
// take seconds at workers 1 alone, so they run at that only. Regenerate the
// tables only when a change is meant to alter these Results:
//
//	go test ./internal/scenario -run TestCorpusRunDigests -update

import (
	"path/filepath"
	"testing"

	"github.com/unilocal/unilocal/internal/digest"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// digestTables are the corpus tables: the spec directories each covers and
// the engine configurations its jobs must agree under. A job whose
// scheduler already permutes keeps its own permutation.
var digestTables = []struct {
	file     string
	dirs     []string
	variants []digest.Variant
}{
	{
		file: "testdata/run_digests.json",
		dirs: []string{filepath.Join("..", "..", "scenarios"), filepath.Join("..", "..", "scenarios", "knowledge")},
		variants: append(digest.Workers(1, 4),
			digest.Variant{Name: "w4-permuted", Workers: 4, Permute: &local.Permute{Seed: 17}}),
	},
	{file: "testdata/paper_digests.json", dirs: []string{paperDir}, variants: digest.Workers(1)},
}

// TestCorpusRunDigests checks every corpus job against its committed digest
// table; with -update it rewrites the tables instead. -short runs workers 1
// only.
func TestCorpusRunDigests(t *testing.T) {
	for _, tc := range digestTables {
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			var specs []*Spec
			for _, dir := range tc.dirs {
				s, err := LoadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				specs = append(specs, s...)
			}
			b, err := Expand(specs, ExpandOptions{Corpus: graph.NewCorpus()})
			if err != nil {
				t.Fatal(err)
			}
			cases := make([]digest.Case, len(b.Jobs))
			for i, j := range b.Jobs {
				cases[i] = digest.Case{
					Name:  j.Label,
					Graph: j.Graph,
					Algo:  j.Algo(),
					Opts:  local.Options{Seed: j.Seed, MaxRounds: j.MaxRounds, Permute: j.Permute},
				}
			}
			digest.Run(t, tc.file, cases, tc.variants...)
		})
	}
}
