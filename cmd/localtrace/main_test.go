package main

// Table-driven smoke tests for the trace command, including the -n 1
// regression (the flag combination that used to ask GNP for p = +Inf) and
// the explicit never-halted accounting under -max-rounds.

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTraceValidationAndOutput(t *testing.T) {
	tests := []struct {
		name    string
		cfg     traceConfig
		wantErr string // substring of the expected error, "" for success
		want    []string
	}{
		{
			name:    "n=1 with positive degree is rejected, not +Inf",
			cfg:     traceConfig{Algo: "lasvegas-mis", N: 1, Deg: 8, Seed: 1},
			wantErr: "average degree at most 0",
		},
		{
			name: "n=1 with degree 0 runs",
			cfg:  traceConfig{Algo: "lasvegas-mis", N: 1, Deg: 0, Seed: 1},
			want: []string{"G(n=1, avg deg 0.0)"},
		},
		{
			name:    "zero nodes",
			cfg:     traceConfig{Algo: "lasvegas-mis", N: 0, Deg: 0, Seed: 1},
			wantErr: "at least one node",
		},
		{
			name:    "negative degree",
			cfg:     traceConfig{Algo: "lasvegas-mis", N: 16, Deg: -1, Seed: 1},
			wantErr: "cannot be negative",
		},
		{
			name:    "NaN degree",
			cfg:     traceConfig{Algo: "lasvegas-mis", N: 64, Deg: math.NaN(), Seed: 1},
			wantErr: "must be a number",
		},
		{
			name:    "degree above n-1",
			cfg:     traceConfig{Algo: "lasvegas-mis", N: 16, Deg: 20, Seed: 1},
			wantErr: "average degree at most 15",
		},
		{
			name:    "negative max-rounds",
			cfg:     traceConfig{Algo: "lasvegas-mis", N: 16, Deg: 2, Seed: 1, MaxRounds: -3},
			wantErr: "must be >= 0",
		},
		{
			name:    "unknown algorithm",
			cfg:     traceConfig{Algo: "no-such", N: 16, Deg: 2, Seed: 1},
			wantErr: `unknown algorithm "no-such"`,
		},
		{
			name:    "entries with a parameter fail validation",
			cfg:     traceConfig{Algo: "uniform-lambda-coloring", N: 16, Deg: 2, Seed: 1},
			wantErr: "needs lambda >= 1, got 0",
		},
		{
			name: "baseline runs with the exact parameters",
			cfg:  traceConfig{Algo: "nonuniform-mis-delta", N: 64, Deg: 4, Seed: 1},
			want: []string{"alternating cascade of colormis"},
		},
		{
			name: "full run has a cascade and no never-halted row",
			cfg:  traceConfig{Algo: "lasvegas-mis", N: 256, Deg: 6, Seed: 1},
			want: []string{"alternating cascade of", "iteration | announce round"},
		},
		{
			name: "truncated run counts never-halted nodes explicitly",
			cfg:  traceConfig{Algo: "uniform-mis-delta", N: 256, Deg: 6, Seed: 1, MaxRounds: 3},
			want: []string{"never halted within 3 rounds"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := trace(tc.cfg, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("trace failed: %v\n%s", err, out.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("output missing %q:\n%s", want, out.String())
				}
			}
			if tc.cfg.MaxRounds == 0 && strings.Contains(out.String(), "never halted") {
				t.Fatalf("untruncated run reported never-halted nodes:\n%s", out.String())
			}
		})
	}
}

// TestTraceCascadeAccounting checks the table's conservation law: pruned
// counts plus the never-halted row add up to n.
func TestTraceCascadeAccounting(t *testing.T) {
	for _, maxRounds := range []int{0, 2, 5} {
		var out strings.Builder
		cfg := traceConfig{Algo: "lasvegas-mis", N: 128, Deg: 4, Seed: 7, MaxRounds: maxRounds}
		if err := trace(cfg, &out); err != nil {
			t.Fatalf("max-rounds=%d: %v", maxRounds, err)
		}
		total := 0
		for _, line := range strings.Split(out.String(), "\n") {
			fields := strings.Split(line, "|")
			if len(fields) != 5 || strings.Contains(line, "iteration") {
				continue
			}
			col := 2
			if strings.Contains(line, "never halted") {
				col = 3
			}
			var pruned int
			if _, err := fmt.Sscan(strings.TrimSpace(fields[col]), &pruned); err != nil {
				t.Fatalf("bad cascade row %q: %v", line, err)
			}
			total += pruned
		}
		if total != cfg.N {
			t.Fatalf("max-rounds=%d: cascade accounts for %d of %d nodes:\n%s",
				maxRounds, total, cfg.N, out.String())
		}
	}
}
