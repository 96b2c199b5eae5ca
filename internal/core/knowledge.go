package core

import (
	"fmt"
	"math"
)

// Knowledge regimes: how much of the true parameter vector a non-uniform
// algorithm is told. The paper's theme is removing the exact-knowledge
// assumption; the regimes below make that assumption an experimental axis.
const (
	// KnowExact advertises the measured parameters unchanged — the classic
	// baseline assumption (and the zero value's meaning).
	KnowExact = "exact"
	// KnowUpperBound advertises ⌈λ·x⌉ for every parameter, modelling a loose
	// a-priori bound (λ >= 1 is the looseness factor).
	KnowUpperBound = "upper-bound"
	// KnowNone advertises nothing: non-uniform algorithms cannot run, only
	// uniform ones — the regime the paper's transformers target.
	KnowNone = "none"
)

// Knowledge is a knowledge regime together with its looseness factor. The
// zero value means exact knowledge.
type Knowledge struct {
	// Regime is one of KnowExact, KnowUpperBound, KnowNone ("" = exact).
	Regime string
	// Looseness is the factor λ of the upper-bound regime; it must be >= 1
	// there and unset (0) elsewhere.
	Looseness float64
}

// UpperBound returns the upper-bound regime with looseness lambda.
func UpperBound(lambda float64) Knowledge {
	return Knowledge{Regime: KnowUpperBound, Looseness: lambda}
}

// None returns the no-knowledge regime.
func None() Knowledge { return Knowledge{Regime: KnowNone} }

// IsExact reports whether k advertises the true parameters unchanged.
func (k Knowledge) IsExact() bool {
	return (k.Regime == "" || k.Regime == KnowExact) && k.Looseness == 0
}

// Validate checks the regime/looseness combination.
func (k Knowledge) Validate() error {
	switch k.Regime {
	case "", KnowExact, KnowNone:
		if k.Looseness != 0 {
			return fmt.Errorf("core: the %s regime takes no looseness factor (got %g)", orExact(k.Regime), k.Looseness)
		}
		return nil
	case KnowUpperBound:
		if math.IsNaN(k.Looseness) || math.IsInf(k.Looseness, 0) || k.Looseness < 1 {
			return fmt.Errorf("core: upper-bound looseness must be a finite factor >= 1, got %g", k.Looseness)
		}
		return nil
	}
	return fmt.Errorf("core: unknown knowledge regime %q (want %s, %s or %s)",
		k.Regime, KnowExact, KnowUpperBound, KnowNone)
}

func orExact(regime string) string {
	if regime == "" {
		return KnowExact
	}
	return regime
}

// String renders the regime for tables and validation reports.
func (k Knowledge) String() string {
	if k.Regime == KnowUpperBound {
		return fmt.Sprintf("%s(λ=%g)", KnowUpperBound, k.Looseness)
	}
	return orExact(k.Regime)
}

// Advertise maps the measured parameter vector to the one a non-uniform
// algorithm is told under this regime. Exact knowledge is the identity;
// upper-bound inflates every parameter to ⌈λ·x⌉ (saturating at GuessCap; a
// true Δ of 0 stays 0 — there is nothing to be loose about on an edgeless
// graph); none refuses, because a non-uniform algorithm cannot run without
// its guesses.
func (k Knowledge) Advertise(p Params) (Params, error) {
	if err := k.Validate(); err != nil {
		return Params{}, err
	}
	switch k.Regime {
	case "", KnowExact:
		return p, nil
	case KnowNone:
		return Params{}, fmt.Errorf("core: the %s regime advertises no parameters; only uniform algorithms can run", KnowNone)
	}
	return Params{
		N:     loosenInt(p.N, k.Looseness),
		Delta: loosenInt(p.Delta, k.Looseness),
		Arb:   loosenInt(p.Arb, k.Looseness),
		M:     loosenInt64(p.M, k.Looseness),
	}, nil
}

// loosenInt is ⌈λ·x⌉ saturated at GuessCap. The float64 round-trip is exact
// for every value the harness produces (parameters stay far below 2^53).
func loosenInt(x int, lambda float64) int {
	if x <= 0 {
		return x
	}
	v := math.Ceil(lambda * float64(x))
	if v >= float64(GuessCap) {
		return GuessCap
	}
	return int(v)
}

func loosenInt64(x int64, lambda float64) int64 {
	if x <= 0 {
		return x
	}
	v := math.Ceil(lambda * float64(x))
	if v >= float64(GuessCap) {
		return int64(GuessCap)
	}
	return int64(v)
}
