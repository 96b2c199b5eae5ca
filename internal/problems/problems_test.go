package problems

import (
	"slices"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
)

func TestValidMIS(t *testing.T) {
	g := graph.Path(5)
	if err := ValidMIS(g, []bool{true, false, true, false, true}); err != nil {
		t.Errorf("valid MIS rejected: %v", err)
	}
	if err := ValidMIS(g, []bool{true, true, false, false, true}); err == nil {
		t.Error("non-independent set accepted")
	}
	if err := ValidMIS(g, []bool{true, false, false, false, true}); err == nil {
		t.Error("non-maximal set accepted")
	}
	if err := ValidMIS(g, []bool{true}); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestValidRulingSet(t *testing.T) {
	g := graph.Path(7)
	// {0, 3, 6} is a (2,1)-ruling set (an MIS) and also (3,2) and (4,3).
	in := []bool{true, false, false, true, false, false, true}
	for _, tc := range []struct {
		alpha, beta int
		ok          bool
	}{
		{2, 1, true}, {3, 2, true}, {4, 3, false}, {2, 0, false},
	} {
		err := ValidRulingSet(g, in, tc.alpha, tc.beta)
		if (err == nil) != tc.ok {
			t.Errorf("(%d,%d)-ruling: err=%v, want ok=%v", tc.alpha, tc.beta, err, tc.ok)
		}
	}
	// A single far node dominates nothing.
	lone := []bool{true, false, false, false, false, false, false}
	if err := ValidRulingSet(g, lone, 2, 2); err == nil {
		t.Error("undominated configuration accepted")
	}
	if err := ValidRulingSet(g, lone, 2, 6); err != nil {
		t.Errorf("beta=6 should dominate the whole path: %v", err)
	}
}

func TestValidColoring(t *testing.T) {
	g, _ := graph.Cycle(4)
	if err := ValidColoring(g, []int{1, 2, 1, 2}, 2); err != nil {
		t.Errorf("valid 2-coloring rejected: %v", err)
	}
	if err := ValidColoring(g, []int{1, 2, 1, 1}, 2); err == nil {
		t.Error("monochromatic edge accepted")
	}
	if err := ValidColoring(g, []int{1, 2, 1, 3}, 2); err == nil {
		t.Error("out-of-palette color accepted")
	}
	if err := ValidColoring(g, []int{0, 2, 1, 2}, 0); err == nil {
		t.Error("color 0 accepted")
	}
	if err := ValidColoring(g, []int{1, 2, 1, 99}, 0); err != nil {
		t.Errorf("palette check not skipped: %v", err)
	}
}

func TestMatchedSemantics(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	claim := NewEdgeClaim(g.ID(1), g.ID(2))
	y := []any{EdgeClaim{}, claim, claim, EdgeClaim{}}
	if !Matched(g, y, 1, 2) {
		t.Error("claimed edge not matched")
	}
	if Matched(g, y, 0, 1) {
		t.Error("unclaimed edge matched")
	}
	// A third node carrying the same value breaks the match.
	y2 := []any{claim, claim, claim, EdgeClaim{}}
	if Matched(g, y2, 1, 2) {
		t.Error("match with duplicated value accepted")
	}
	// Matching values that are not the canonical claim of the edge do not
	// match (the canonical strengthening).
	weird := NewEdgeClaim(998, 999)
	y3 := []any{EdgeClaim{}, weird, weird, EdgeClaim{}}
	if Matched(g, y3, 1, 2) {
		t.Error("non-canonical shared value accepted as a match")
	}
	// Two adjacent zero-claim nodes are never matched.
	y4 := []any{claim, EdgeClaim{}, EdgeClaim{}, claim}
	if Matched(g, y4, 1, 2) {
		t.Error("zero claims accepted as a match")
	}
	// nil output equals the zero claim.
	if normalizeClaim(nil) != (EdgeClaim{}) {
		t.Error("nil not treated as zero claim")
	}
}

func TestValidMaximalMatching(t *testing.T) {
	g := graph.Path(4)
	claim := NewEdgeClaim(g.ID(1), g.ID(2))
	// 1-2 matched: 0 and 3 have all neighbours matched => maximal.
	if err := ValidMaximalMatching(g, []any{EdgeClaim{}, claim, claim, EdgeClaim{}}); err != nil {
		t.Errorf("valid MM rejected: %v", err)
	}
	// Empty matching is not maximal.
	if err := ValidMaximalMatching(g, []any{EdgeClaim{}, EdgeClaim{}, EdgeClaim{}, EdgeClaim{}}); err == nil {
		t.Error("empty matching accepted on a path")
	}
}

func TestValidEdgeColoring(t *testing.T) {
	g := graph.Star(4) // 3 edges sharing the centre
	if err := ValidEdgeColoring(g, []int{1, 2, 3}, 3); err != nil {
		t.Errorf("valid edge coloring rejected: %v", err)
	}
	if err := ValidEdgeColoring(g, []int{1, 2, 1}, 3); err == nil {
		t.Error("conflicting edge colors accepted")
	}
	if err := ValidEdgeColoring(g, []int{1, 2, 4}, 3); err == nil {
		t.Error("out-of-palette edge color accepted")
	}
}

// TestEdgeColors reads per-port colors of a path 0-1-2 in both output
// forms, and rejects ends that disagree or carry no int color.
func TestEdgeColors(t *testing.T) {
	g := graph.Path(3)
	for name, tc := range map[string]struct {
		outputs []any
		want    []int // nil: an error is expected
	}{
		"ints":     {[]any{[]int{5}, []int{5, 7}, []int{7}}, []int{5, 7}},
		"anys":     {[]any{[]any{5}, []any{5, 7}, []any{7}}, []int{5, 7}},
		"disagree": {[]any{[]int{5}, []int{6, 7}, []int{7}}, nil},
		"missing":  {[]any{[]int{5}, []any{5, nil}, []int{7}}, nil},
		"short":    {[]any{[]int{5}, []int{5}, []int{7}}, nil},
	} {
		got, err := EdgeColors(g, tc.outputs)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: accepted as %v", name, got)
			}
		} else if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, %v; want %v", name, got, err, tc.want)
		}
	}
}

func TestCoercions(t *testing.T) {
	bs, err := Bools([]any{true, nil, false})
	if err != nil || !bs[0] || bs[1] || bs[2] {
		t.Errorf("Bools = %v, %v", bs, err)
	}
	if _, err := Bools([]any{3}); err == nil {
		t.Error("Bools accepted an int")
	}
	is, err := Ints([]any{1, nil, 7})
	if err != nil || is[0] != 1 || is[1] != 0 || is[2] != 7 {
		t.Errorf("Ints = %v, %v", is, err)
	}
	if _, err := Ints([]any{"x"}); err == nil {
		t.Error("Ints accepted a string")
	}
}

func TestEdgeClaim(t *testing.T) {
	c := NewEdgeClaim(9, 4)
	if c.A != 4 || c.B != 9 {
		t.Errorf("claim not canonical: %+v", c)
	}
	if (EdgeClaim{}).Claimed() {
		t.Error("zero claim reported as claimed")
	}
	if !c.Claimed() {
		t.Error("real claim reported as unclaimed")
	}
}
