package cliutil

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNodes(t *testing.T) {
	if err := Nodes("-n", 1); err != nil {
		t.Fatalf("n=1: %v", err)
	}
	err := Nodes("-n", 0)
	if err == nil || !strings.Contains(err.Error(), "need at least one node") {
		t.Fatalf("n=0: %v", err)
	}
	if !strings.Contains(err.Error(), "-n 0") {
		t.Fatalf("error should name the flag and value: %v", err)
	}
}

func TestAvgDegree(t *testing.T) {
	if err := AvgDegree("-deg", 16, 15); err != nil {
		t.Fatalf("deg=n-1 is the maximum: %v", err)
	}
	if err := AvgDegree("-deg", 1, 0); err != nil {
		t.Fatalf("one node, degree zero: %v", err)
	}
	if err := AvgDegree("-deg", 16, -1); err == nil || !strings.Contains(err.Error(), "cannot be negative") {
		t.Fatalf("negative degree: %v", err)
	}
	if err := AvgDegree("-deg", 16, math.NaN()); err == nil || !strings.Contains(err.Error(), "must be a number") {
		t.Fatalf("NaN degree: %v", err)
	}
	err := AvgDegree("-deg", 16, 20)
	if err == nil || !strings.Contains(err.Error(), "average degree at most 15") {
		t.Fatalf("degree over n-1: %v", err)
	}
}

func TestGNPProb(t *testing.T) {
	if p := GNPProb(1, 0); p != 0 {
		t.Fatalf("n=1: p = %g, want 0", p)
	}
	if p := GNPProb(17, 8); p != 0.5 {
		t.Fatalf("n=17 deg=8: p = %g, want 0.5", p)
	}
}

func TestNonNegativeAndPositive(t *testing.T) {
	if err := NonNegative("-max-rounds", 0); err != nil {
		t.Fatalf("zero is allowed: %v", err)
	}
	if err := NonNegative("-max-rounds", -3); err == nil || !strings.Contains(err.Error(), "must be >= 0") {
		t.Fatalf("negative: %v", err)
	}
	if err := Positive("-after", 1); err != nil {
		t.Fatalf("one is allowed: %v", err)
	}
	if err := Positive("-after", 0); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Fatalf("zero: %v", err)
	}
}

func TestDir(t *testing.T) {
	d := t.TempDir()
	if err := Dir("-scenarios", d); err != nil {
		t.Fatalf("existing dir: %v", err)
	}
	if err := Dir("-scenarios", ""); err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("empty: %v", err)
	}
	if err := Dir("-scenarios", filepath.Join(d, "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
	f := filepath.Join(d, "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Dir("-scenarios", f); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("plain file: %v", err)
	}
}

func TestEndpoints(t *testing.T) {
	got, err := Endpoints("-endpoints", " http://a:1/ ,https://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "https://b:2" {
		t.Fatalf("parsed %v", got)
	}
	if got, err := Endpoints("-endpoints", "  "); err != nil || got != nil {
		t.Fatalf("empty list: %v, %v", got, err)
	}
	for _, bad := range []string{"http://a,,http://b", "ftp://a", "http://", "127.0.0.1:8080"} {
		if _, err := Endpoints("-endpoints", bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}
