package main

// End-to-end tests of the localsweepd entry point against in-process
// replicas: the merged document on stdout must be byte-identical to the
// single-process serve.Execute markdown for the same corpus and seed — the
// same identity CI's fabric-chaos job checks against real processes.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
)

const (
	sweepSpecLuby = `{
  "name": "sweepd-luby",
  "description": "test corpus member",
  "graph": {"family": "cycle", "n": 96},
  "algorithm": {"name": "luby-mis"},
  "seeds": [1, 2, 3]
}`
	sweepSpecMIS = `{
  "name": "sweepd-mis",
  "description": "test corpus member",
  "graph": {"family": "gnp", "n": 64, "p": 0.08, "seed": 2},
  "algorithm": {"name": "uniform-mis-delta"},
  "baseline": {"name": "nonuniform-mis-delta"},
  "seeds": [1, 2]
}`
)

func writeCorpus(t *testing.T, specs ...string) string {
	t.Helper()
	dir := t.TempDir()
	for i, s := range specs {
		path := filepath.Join(dir, "spec"+string(rune('a'+i))+".json")
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func wantMarkdown(t *testing.T, dir string, seed int64, filter string) []byte {
	t.Helper()
	specs, err := scenario.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filter != "all" {
		var keep []*scenario.Spec
		for _, s := range specs {
			if s.Name == filter {
				keep = append(keep, s)
			}
		}
		specs = keep
	}
	out, err := serve.Execute(specs, serve.ExecOptions{SeedOffset: seed - 1})
	if err != nil {
		t.Fatal(err)
	}
	return out.Markdown
}

func TestSweepMatchesLocalbenchOutput(t *testing.T) {
	dir := writeCorpus(t, sweepSpecLuby, sweepSpecMIS)
	var endpoints []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}))
		defer ts.Close()
		endpoints = append(endpoints, ts.URL)
	}
	cfg := sweepConfig{
		Scenarios: dir,
		Endpoints: strings.Join(endpoints, ","),
		Exp:       "all",
		Seed:      1,
		Quiet:     true,
	}
	var stdout, stderr bytes.Buffer
	if err := sweep(context.Background(), cfg, &stdout, &stderr); err != nil {
		t.Fatalf("sweep: %v\nstderr: %s", err, stderr.String())
	}
	want := wantMarkdown(t, dir, 1, "all")
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("merged document differs from single-process output:\n--- got ---\n%s\n--- want ---\n%s", stdout.Bytes(), want)
	}
	// The summary's shape is what perfbench/corpus.go's fabricLine parses.
	summary := regexp.MustCompile(`\d+ shard tasks over 2 replicas: \d+ attempts, \d+ retries, \d+ hedges, \d+ fallbacks`)
	if !summary.MatchString(stderr.String()) {
		t.Fatalf("missing supervision summary: %s", stderr.String())
	}
}

func TestSweepExpFilterAndSeed(t *testing.T) {
	dir := writeCorpus(t, sweepSpecLuby, sweepSpecMIS)
	ts := httptest.NewServer(serve.New(serve.Config{}))
	defer ts.Close()
	cfg := sweepConfig{
		Scenarios: dir,
		Endpoints: ts.URL,
		Exp:       "sweepd-mis",
		Seed:      4,
		Shards:    3,
		Quiet:     true,
	}
	var stdout, stderr bytes.Buffer
	if err := sweep(context.Background(), cfg, &stdout, &stderr); err != nil {
		t.Fatalf("sweep: %v\nstderr: %s", err, stderr.String())
	}
	want := wantMarkdown(t, dir, 4, "sweepd-mis")
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("filtered document differs:\n--- got ---\n%s\n--- want ---\n%s", stdout.Bytes(), want)
	}
	if strings.Contains(stdout.String(), "sweepd-luby") {
		t.Fatal("-exp filter leaked the other scenario")
	}
}

func TestSweepFallbackOnlyNeedsNoReplicas(t *testing.T) {
	dir := writeCorpus(t, sweepSpecLuby)
	cfg := sweepConfig{
		Scenarios: dir,
		Exp:       "all",
		Seed:      1,
		Shards:    2,
		Fallback:  true,
		Quiet:     true,
	}
	var stdout, stderr bytes.Buffer
	if err := sweep(context.Background(), cfg, &stdout, &stderr); err != nil {
		t.Fatalf("fallback-only sweep: %v", err)
	}
	if want := wantMarkdown(t, dir, 1, "all"); !bytes.Equal(stdout.Bytes(), want) {
		t.Fatal("fallback-only document differs from single-process output")
	}
}

func TestSweepConfigErrors(t *testing.T) {
	dir := writeCorpus(t, sweepSpecLuby)
	cases := []struct {
		name string
		cfg  sweepConfig
		want string
	}{
		{"missing scenarios", sweepConfig{Endpoints: "http://x"}, "-scenarios: required"},
		{"bad endpoint", sweepConfig{Scenarios: dir, Endpoints: "ftp://x", Exp: "all"}, "http:// or https://"},
		{"negative shards", sweepConfig{Scenarios: dir, Endpoints: "http://127.0.0.1:1", Exp: "all", Shards: -1}, "-shards -1"},
		{"unknown scenario", sweepConfig{Scenarios: dir, Endpoints: "http://127.0.0.1:1", Exp: "nope"}, `no scenario named "nope"`},
		{"no endpoints no fallback", sweepConfig{Scenarios: dir, Exp: "all"}, "no endpoints and no fallback"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := sweep(context.Background(), tc.cfg, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSweepStatusLine: -status appends one per-replica supervision summary
// line with breaker position and the attempt ledger.
func TestSweepStatusLine(t *testing.T) {
	dir := writeCorpus(t, sweepSpecLuby)
	ts := httptest.NewServer(serve.New(serve.Config{}))
	defer ts.Close()
	cfg := sweepConfig{
		Scenarios: dir,
		Endpoints: ts.URL,
		Exp:       "all",
		Seed:      1,
		Quiet:     true,
		Status:    true,
	}
	var stdout, stderr bytes.Buffer
	if err := sweep(context.Background(), cfg, &stdout, &stderr); err != nil {
		t.Fatalf("sweep: %v\nstderr: %s", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "localsweepd: status: retries 0 · ") {
		t.Fatalf("missing status line: %s", out)
	}
	if !strings.Contains(out, ts.URL+" breaker=closed fails=0 attempts=1 ok=1 err=0") {
		t.Fatalf("missing replica ledger: %s", out)
	}
}
