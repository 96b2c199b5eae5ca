package main

// End-to-end tests of the localbench command line. Each test re-executes the
// test binary as localbench itself (see TestMain), so flag parsing, exit
// status, stdout and the -json file are checked exactly as a shell sees them.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/benchfmt"
	"github.com/unilocal/unilocal/internal/scenario"
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

// specDir copies one committed spec into a fresh directory, so the run sees
// exactly one scenario.
func specDir(t *testing.T, spec string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", spec))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, spec), data, 0o644); err != nil {
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
