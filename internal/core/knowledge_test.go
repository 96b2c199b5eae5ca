package core

import (
	"math"
	"strings"
	"testing"
)

// TestNewParamsClampPolicy pins the constructor's domain floor: n, a and m
// are raised to 1 (they are positive by definition in Section 2), Δ is
// passed through untouched because 0 is its true value on an edgeless graph.
func TestNewParamsClampPolicy(t *testing.T) {
	cases := []struct {
		name          string
		n, delta, arb int
		m             int64
		want          Params
	}{
		{"single node", 1, 0, 0, 0, Params{N: 1, Delta: 0, Arb: 1, M: 1}},
		{"edgeless", 8, 0, 0, 7, Params{N: 8, Delta: 0, Arb: 1, M: 7}},
		{"empty graph", 0, 0, 0, 0, Params{N: 1, Delta: 0, Arb: 1, M: 1}},
		{"negative junk", -3, -2, -1, -4, Params{N: 1, Delta: -2, Arb: 1, M: 1}},
		{"ordinary", 100, 5, 3, 512, Params{N: 100, Delta: 5, Arb: 3, M: 512}},
	}
	for _, c := range cases {
		if got := NewParams(c.n, c.delta, c.arb, c.m); got != c.want {
			t.Errorf("%s: NewParams(%d, %d, %d, %d) = %+v, want %+v",
				c.name, c.n, c.delta, c.arb, c.m, got, c.want)
		}
	}
}

func TestParamsWith(t *testing.T) {
	p := NewParams(10, 4, 2, 99)
	for q, want := range map[Param]Params{
		ParamN:          {N: 7, Delta: 4, Arb: 2, M: 99},
		ParamMaxDegree:  {N: 10, Delta: 7, Arb: 2, M: 99},
		ParamArboricity: {N: 10, Delta: 4, Arb: 7, M: 99},
		ParamMaxID:      {N: 10, Delta: 4, Arb: 2, M: 7},
	} {
		if got := p.With(q, 7); got != want {
			t.Errorf("With(%s, 7) = %+v, want %+v", q, got, want)
		}
	}
}

func TestParamsFromVector(t *testing.T) {
	p := ParamsFromVector([]Param{ParamMaxDegree, ParamMaxID}, []int{5, 200})
	if p.Delta != 5 || p.M != 200 {
		t.Errorf("ParamsFromVector gave %+v", p)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("short vector", func() {
		ParamsFromVector([]Param{ParamN, ParamMaxID}, []int{1})
	})
	mustPanic("duplicate parameter", func() {
		ParamsFromVector([]Param{ParamN, ParamN}, []int{1, 2})
	})
	mustPanic("unknown parameter", func() {
		ParamsFromVector([]Param{Param("bogus")}, []int{1})
	})
}

func TestKnowledgeValidate(t *testing.T) {
	good := []Knowledge{{}, {Regime: KnowExact}, None(), UpperBound(1), UpperBound(1.5), UpperBound(16)}
	for _, k := range good {
		if err := k.Validate(); err != nil {
			t.Errorf("%v rejected: %v", k, err)
		}
	}
	bad := []Knowledge{
		{Regime: KnowExact, Looseness: 2},
		{Regime: "", Looseness: 2},
		{Regime: KnowNone, Looseness: 2},
		UpperBound(0.5),
		UpperBound(0),
		UpperBound(-1),
		UpperBound(math.NaN()),
		UpperBound(math.Inf(1)),
		{Regime: "psychic"},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("%+v not rejected", k)
		}
	}
}

func TestKnowledgeAdvertise(t *testing.T) {
	true_ := NewParams(100, 7, 3, 512)

	for _, k := range []Knowledge{{}, {Regime: KnowExact}} {
		got, err := k.Advertise(true_)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got != true_ {
			t.Errorf("%v changed the parameters: %+v", k, got)
		}
	}

	if _, err := None().Advertise(true_); err == nil {
		t.Error("none regime advertised parameters")
	}

	got, err := UpperBound(1).Advertise(true_)
	if err != nil {
		t.Fatal(err)
	}
	if got != true_ {
		t.Errorf("λ=1 changed the parameters: %+v", got)
	}

	got, err = UpperBound(1.5).Advertise(true_)
	if err != nil {
		t.Fatal(err)
	}
	want := Params{N: 150, Delta: 11, Arb: 5, M: 768} // ⌈1.5·7⌉ = 11, ⌈1.5·3⌉ = 5
	if got != want {
		t.Errorf("λ=1.5 advertised %+v, want %+v", got, want)
	}

	// A true Δ of 0 (edgeless graph) stays 0 at any looseness.
	got, err = UpperBound(16).Advertise(NewParams(4, 0, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta != 0 {
		t.Errorf("edgeless Δ inflated to %d", got.Delta)
	}
	if got.N != 64 || got.Arb != 16 || got.M != 48 {
		t.Errorf("λ=16 advertised %+v", got)
	}

	// Inflation saturates at GuessCap instead of overflowing.
	got, err = UpperBound(1e30).Advertise(true_)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != GuessCap || got.Delta != GuessCap || got.Arb != GuessCap || got.M != int64(GuessCap) {
		t.Errorf("huge λ did not saturate: %+v", got)
	}

	// An invalid regime is refused before any arithmetic.
	if _, err := UpperBound(0.25).Advertise(true_); err == nil {
		t.Error("invalid looseness not refused")
	}
}

func TestKnowledgeString(t *testing.T) {
	cases := map[string]Knowledge{
		"exact":              {},
		"none":               None(),
		"upper-bound(λ=4)":   UpperBound(4),
		"upper-bound(λ=1.5)": UpperBound(1.5),
	}
	for want, k := range cases {
		if got := k.String(); got != want {
			t.Errorf("%+v renders %q, want %q", k, got, want)
		}
	}
	if !strings.Contains(Params{N: 2, Delta: 1, Arb: 1, M: 3}.String(), "n=2") {
		t.Error("Params.String lost n")
	}
}
