package serve

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
)

// diffGraphBlocks gives every scenario family a small, valid graph block for
// the graph-source differential below. TestGraphSourceByteIdentity fails if
// a family in the table has no entry here, so a new family cannot dodge the
// differential.
var diffGraphBlocks = map[string]string{
	"path":           `{"family": "path", "n": 24}`,
	"cycle":          `{"family": "cycle", "n": 24}`,
	"star":           `{"family": "star", "n": 24}`,
	"clique":         `{"family": "clique", "n": 12}`,
	"grid":           `{"family": "grid", "rows": 4, "cols": 5}`,
	"torus":          `{"family": "torus", "rows": 4, "cols": 5}`,
	"hypercube":      `{"family": "hypercube", "d": 4}`,
	"tree":           `{"family": "tree", "n": 32, "seed": 3}`,
	"caterpillar":    `{"family": "caterpillar", "n": 8, "k": 2}`,
	"lollipop":       `{"family": "lollipop", "n": 6, "k": 4}`,
	"gnp":            `{"family": "gnp", "n": 64, "p": 0.08, "seed": 3}`,
	"regular":        `{"family": "regular", "n": 32, "d": 4, "seed": 3}`,
	"forest":         `{"family": "forest", "n": 32, "k": 2, "seed": 3}`,
	"ba":             `{"family": "ba", "n": 64, "k": 3, "seed": 3}`,
	"geometric":      `{"family": "geometric", "n": 64, "radius": 0.15, "seed": 3}`,
	"huge-geometric": `{"family": "huge-geometric", "n": 96, "d": 6, "seed": 3}`,
	"huge-ba":        `{"family": "huge-ba", "n": 96, "k": 3, "seed": 3}`,
	"smallworld":     `{"family": "smallworld", "n": 32, "k": 4, "beta": 0.1, "seed": 3}`,
}

// TestGraphSourceByteIdentity is the tentpole guarantee of the two-tier
// corpus: for every graph family, the rendered document is byte-identical
// whether the graph came from a fresh generation, an in-memory corpus hit,
// or a disk-tier CSR image load. A difference would mean the store changed
// the graph — exactly what the checksummed image format exists to prevent.
func TestGraphSourceByteIdentity(t *testing.T) {
	for _, fam := range scenario.Families() {
		t.Run(fam.Name, func(t *testing.T) {
			block, ok := diffGraphBlocks[fam.Name]
			if !ok {
				t.Fatalf("family %s has no differential graph block; add one to diffGraphBlocks", fam.Name)
			}
			specJSON := fmt.Appendf(nil, `{
  "name": "diff-%s",
  "graph": %s,
  "algorithm": {"name": "luby-mis"},
  "seeds": [1, 2]
}`, fam.Name, block)
			spec, err := scenario.Parse(specJSON)
			if err != nil {
				t.Fatal(err)
			}
			specs := []*scenario.Spec{spec}

			// Fresh generation, then a memory hit on the same corpus.
			mem := graph.NewCorpus()
			fresh := localbenchMarkdown(t, specs, ExecOptions{Corpus: mem})
			memHit := localbenchMarkdown(t, specs, ExecOptions{Corpus: mem})
			if h, _ := mem.Stats(); h == 0 {
				t.Fatal("second run did not hit the in-memory tier")
			}

			// Disk hit: pre-warm the store with one corpus, load from a fresh one.
			store, err := graph.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			warmer := graph.NewCorpus()
			warmer.AttachStore(store)
			localbenchMarkdown(t, specs, ExecOptions{Corpus: warmer})
			loader := graph.NewCorpus()
			loader.AttachStore(store)
			diskHit := localbenchMarkdown(t, specs, ExecOptions{Corpus: loader})
			if st := store.Stats(); st.Hits == 0 {
				t.Fatalf("store-backed run never loaded from disk: %+v", st)
			}

			if !bytes.Equal(fresh, memHit) {
				t.Error("memory-hit document diverges from fresh generation")
			}
			if !bytes.Equal(fresh, diskHit) {
				t.Error("disk-hit document diverges from fresh generation")
			}
		})
	}
}
