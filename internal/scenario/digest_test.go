package scenario

// Digest oracle for the committed scenario corpus: every job of every spec in
// scenarios/*.json and scenarios/knowledge/*.json (the perfbench spec copies
// are identical to these) is run through the engine and its Result (Outputs,
// HaltRounds, Rounds, Messages, Steps) is hashed and compared with the
// committed table in testdata/run_digests.json. Each job runs at engine
// workers 1 and 4 and under an adversarial delivery permutation; all three
// must give the one digest. Regenerate the table only when a change is meant
// to alter these Results:
//
//	go test ./internal/scenario -run TestCorpusRunDigests -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

var update = flag.Bool("update", false, "rewrite testdata/run_digests.json from the live corpus")

const digestFile = "testdata/run_digests.json"

// digestDirs are the spec directories the table covers.
var digestDirs = []string{
	filepath.Join("..", "..", "scenarios"),
	filepath.Join("..", "..", "scenarios", "knowledge"),
}

// resultDigest hashes every deterministic field of a Result.
func resultDigest(res *local.Result) string {
	h := sha256.New()
	for u, o := range res.Outputs {
		fmt.Fprintf(h, "%d %T %v\n", u, o, o)
	}
	fmt.Fprintf(h, "halt %v\nrounds %d messages %d steps %d\n", res.HaltRounds, res.Rounds, res.Messages, res.Steps)
	return hex.EncodeToString(h.Sum(nil))
}

// digestVariants are the engine configurations every job must agree under.
// A job whose scheduler already permutes keeps its own permutation.
var digestVariants = []struct {
	name    string
	workers int
	permute *local.Permute
}{
	{name: "w1", workers: 1},
	{name: "w4", workers: 4},
	{name: "w4-permuted", workers: 4, permute: &local.Permute{Seed: 17}},
}

// TestCorpusRunDigests checks every corpus job against the committed digest
// table; with -update it rewrites the table instead. -short runs workers 1
// only.
func TestCorpusRunDigests(t *testing.T) {
	var want map[string]string
	if !*update {
		raw, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	var specs []*Spec
	for _, dir := range digestDirs {
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
	variants := digestVariants
	if testing.Short() && !*update {
		variants = variants[:1]
	}
	got := make(map[string]string)
	for _, j := range b.Jobs {
		if _, dup := got[j.Label]; dup {
			t.Fatalf("%s: duplicate job label", j.Label)
		}
		for _, v := range variants {
			permute := j.Permute
			if permute == nil {
				permute = v.permute
			}
			res, err := local.Run(j.Graph, j.Algo(), local.Options{
				Seed:      j.Seed,
				MaxRounds: j.MaxRounds,
				Workers:   v.workers,
				Permute:   permute,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", j.Label, v.name, err)
			}
			d := resultDigest(res)
			if prev, ok := got[j.Label]; ok && prev != d {
				t.Errorf("%s/%s: digest %.12s, %s gave %.12s", j.Label, v.name, d, variants[0].name, prev)
				continue
			}
			got[j.Label] = d
			if !*update && d != want[j.Label] {
				t.Errorf("%s/%s: digest %.12s, table %.12s", j.Label, v.name, d, want[j.Label])
			}
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestFile)
		return
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in the table but no longer a job", name)
		}
	}
}
