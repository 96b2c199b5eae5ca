package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseCanonical: for any input Parse accepts, the canonical form —
// json.Marshal of the parsed spec — is a fixed point: it parses again and
// re-marshals to identical bytes. The serving layer's execution table and
// job.JobID both key on this form, so one that moved under a second round
// trip would split one execution across two keys. Seeded from every
// committed spec and the serving layer's golden request.
func FuzzParseCanonical(f *testing.F) {
	seeds := []string{"../serve/testdata/mis_request.json"}
	for _, dir := range []string{"../../scenarios", "../../scenarios/knowledge", "../../scenarios/paper"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed specs in %s: %v", dir, err)
		}
		seeds = append(seeds, paths...)
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		canonical, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshaling an accepted spec: %v", err)
		}
		again, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canonical)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("marshaling the reparsed spec: %v", err)
		}
		if !bytes.Equal(canonical, twice) {
			t.Fatalf("canonical form is not a fixed point:\n first: %s\nsecond: %s", canonical, twice)
		}
	})
}
