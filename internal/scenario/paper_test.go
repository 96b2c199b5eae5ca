package scenario

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/sweep"
)

// paperDir is the committed corpus of the paper's experiments E1–E13.
var paperDir = filepath.Join("..", "..", "scenarios", "paper")

// TestPaperCorpusShape pins the paper corpus: 46 specs, all loadable, named
// paper-eNN-… so that file-name order is experiment order.
func TestPaperCorpusShape(t *testing.T) {
	specs, err := LoadDir(paperDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 46 {
		t.Fatalf("paper corpus has %d specs, want 46", len(specs))
	}
	prev := ""
	for _, s := range specs {
		if !strings.HasPrefix(s.Name, "paper-e") || s.Name < prev {
			t.Errorf("spec %s breaks the paper-eNN- naming order (after %s)", s.Name, prev)
		}
		prev = s.Name
	}
}

// runPaper loads the named paper specs, runs them and validates every
// output.
func runPaper(t *testing.T, names ...string) (*Batch, []sweep.Result) {
	t.Helper()
	var specs []*Spec
	for _, name := range names {
		s, err := LoadFile(filepath.Join(paperDir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	b, err := Expand(specs, ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := sweep.Run(b.Jobs, sweep.Options{})
	renderBatch(t, b, results)
	return b, results
}

// TestObservation21 runs the two E13 specs and checks Observation 2.1's
// composition bound: under the modular wake-up skew (node id sleeps
// id mod 17 rounds), Luby's MIS finishes within max delay + plain rounds +
// a slack of 4.
func TestObservation21(t *testing.T) {
	b, results := runPaper(t, "paper-e13-gnp6-plain", "paper-e13-gnp6-modular")
	sched := b.Specs[1].Scheduler
	if sched.Kind != SchedModular || sched.MaxDelay != 16 {
		t.Fatalf("modular spec schedules %s, want modular(max=16)", sched)
	}
	plain, modular := results[0].Res.Rounds, results[1].Res.Rounds
	if bound := sched.MaxDelay + plain + 4; modular > bound {
		t.Errorf("modular wake-up took %d rounds, above the Observation 2.1 bound %d (= %d + %d + 4)",
			modular, bound, sched.MaxDelay, plain)
	}
	if modular <= plain {
		t.Errorf("modular wake-up took %d rounds, plain %d: the skew had no effect", modular, plain)
	}
}
