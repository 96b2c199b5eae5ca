package main

// End-to-end tests of the localbench command line. Each test re-executes the
// test binary as localbench itself (see TestMain), so flag parsing, exit
// status, stdout and the -json file are checked exactly as a shell sees them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/benchfmt"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
)

// TestMain runs main instead of the tests when the environment asks for it,
// which turns the test binary into the command under test.
func TestMain(m *testing.M) {
	if os.Getenv("LOCALBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// localbench runs the command with args and returns its stdout, its stderr
// and its exit error (nil on status 0).
func localbench(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LOCALBENCH_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// specDir copies one committed spec (a path under scenarios/) into a fresh
// directory, so the run sees exactly one scenario.
func specDir(t *testing.T, spec string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", spec))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(spec)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestUsageErrors(t *testing.T) {
	dir := specDir(t, "mis-delta-cycle-dense.json")
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring of stderr
	}{
		{"missing -scenarios", nil, "-scenarios dir is required"},
		{"unknown -exp", []string{"-scenarios", dir, "-exp", "no-such"}, `no scenario named "no-such"`},
		{"-pgo is not a flag", []string{"-scenarios", dir, "-pgo", filepath.Join(t.TempDir(), "p.pgo")}, "flag provided but not defined: -pgo"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := localbench(t, tc.args...)
			if err == nil {
				t.Fatalf("exit status 0, want failure; stdout:\n%s", stdout)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr %q lacks %q", stderr, tc.wantErr)
			}
			if stdout != "" {
				t.Fatalf("failed run wrote to stdout:\n%s", stdout)
			}
		})
	}
}

// TestRunFailureText runs a spec whose only job cannot finish within its
// max_rounds: the command exits 1, writes nothing to stdout and names the
// scenario and the job before the engine's own error.
func TestRunFailureText(t *testing.T) {
	dir := t.TempDir()
	spec := `{
  "name": "fail-maxrounds",
  "graph": {"family": "cycle", "n": 64},
  "algorithm": {"name": "uniform-mis-delta"},
  "max_rounds": 3
}
`
	if err := os.WriteFile(filepath.Join(dir, "fail.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := localbench(t, "-scenarios", dir)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit error %v, want status 1; stderr: %s", err, stderr)
	}
	if stdout != "" {
		t.Fatalf("failed run wrote to stdout:\n%s", stdout)
	}
	const want = "localbench: scenario fail-maxrounds: fail-maxrounds/uniform-mis-delta/seed=1/rep=0: local: max rounds exceeded before termination: "
	if !strings.HasPrefix(stderr, want) {
		t.Fatalf("stderr %q, want prefix %q", stderr, want)
	}
}

// TestJSONOneRecordPerJob runs one spec under -json at -parallel 1 and 2:
// the document holds one record per expanded job, and stdout is the same
// bytes at both settings.
func TestJSONOneRecordPerJob(t *testing.T) {
	dir := specDir(t, "mis-delta-cycle-dense.json")
	specs, err := scenario.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := scenario.Expand(specs, scenario.ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, parallel := range []string{"1", "2"} {
		path := filepath.Join(t.TempDir(), "bench.json")
		stdout, stderr, err := localbench(t, "-scenarios", dir, "-parallel", parallel, "-json", path)
		if err != nil {
			t.Fatalf("-parallel %s: %v\nstderr: %s", parallel, err, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc benchfmt.Doc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Results) != len(batch.Jobs) {
			t.Fatalf("-parallel %s: %d records, want one per job (%d)", parallel, len(doc.Results), len(batch.Jobs))
		}
		labels := map[string]bool{}
		for i, rec := range doc.Results {
			if want := batch.Metas[i].Algo.String(); rec.Experiment != specs[0].Name || rec.Algorithm != want {
				t.Errorf("-parallel %s: record %d is %s/%s, want %s/%s", parallel, i, rec.Experiment, rec.Algorithm, specs[0].Name, want)
			}
			if labels[rec.Label] {
				t.Errorf("-parallel %s: label %s recorded twice", parallel, rec.Label)
			}
			labels[rec.Label] = true
		}
		if first == "" {
			first = stdout
		} else if stdout != first {
			t.Fatalf("stdout differs between -parallel 1 and -parallel %s:\n%s\n---\n%s", parallel, first, stdout)
		}
	}
	if !strings.Contains(first, "### "+specs[0].Name) {
		t.Fatalf("stdout lacks the scenario section:\n%s", first)
	}
}

// TestJSONDocIsComplete pins the schema-4 document -json writes, at
// -parallel 2 and -seed 2: the header and sweep blocks perfbench's corpus
// workload reads are filled, every record carries its run's node-steps and
// wall time, the instruction block sums the steps, and every deterministic
// record field equals what scenario.Documents, the served builder, writes
// for the same spec and seed.
func TestJSONDocIsComplete(t *testing.T) {
	dir := specDir(t, "paper/paper-e02-gnp6-0064.json")
	path := filepath.Join(t.TempDir(), "bench.json")
	if _, stderr, err := localbench(t, "-scenarios", dir, "-seed", "2", "-parallel", "2", "-json", path); err != nil {
		t.Fatalf("%v\nstderr: %s", err, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchfmt.Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.GeneratedBy != "cmd/localbench -scenarios" || doc.Seed != 2 || doc.Parallel != 2 {
		t.Errorf("header generated_by %q, seed %d, parallel %d", doc.GeneratedBy, doc.Seed, doc.Parallel)
	}
	if doc.Sweep.Jobs != len(doc.Results) || doc.Sweep.Workers == 0 || doc.Sweep.WallNs == 0 {
		t.Errorf("sweep block %+v for %d records", doc.Sweep, len(doc.Results))
	}

	specs, err := scenario.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 2
	shards, _, err := serve.ExecuteShard(specs, scenario.Shard{Index: 0, Count: 1}, serve.ExecOptions{SeedOffset: seed - 1})
	if err != nil {
		t.Fatal(err)
	}
	slots := shards[0].Slots
	_, js, err := scenario.Documents(specs[0], seed, shards[0].Graph, slots)
	if err != nil {
		t.Fatal(err)
	}
	var served benchfmt.Doc
	if err := json.Unmarshal(js, &served); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != len(served.Results) {
		t.Fatalf("%d records, the served document has %d", len(doc.Results), len(served.Results))
	}
	var steps int64
	for i, rec := range doc.Results {
		if rec.Steps <= 0 || rec.Steps != slots[i].Steps || rec.WallNs <= 0 {
			t.Errorf("record %d steps %d, wall_ns %d; want steps %d and a measured wall time", i, rec.Steps, rec.WallNs, slots[i].Steps)
		}
		steps += rec.Steps
		det := rec
		det.WallNs, det.Allocs, det.Steps = 0, 0, 0
		if det != served.Results[i] {
			t.Errorf("record %d is %+v, the served record %+v", i, det, served.Results[i])
		}
	}
	if doc.Instr == nil || doc.Instr.NodeSteps != steps || doc.Instr.StepsPerJob != float64(steps)/float64(len(doc.Results)) {
		t.Errorf("instr block %+v, want %d node-steps over %d jobs", doc.Instr, steps, len(doc.Results))
	}
}
