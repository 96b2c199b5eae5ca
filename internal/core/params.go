// Package core implements the contribution of Korman, Sereni and Viennot,
// "Toward more localized local algorithms: removing assumptions concerning
// global knowledge" (PODC 2011 / Distributed Computing 2013):
//
//   - pruning algorithms (Section 3): constant-radius local procedures with
//     the solution-detection and gluing properties, including the concrete
//     pruners P(2,β) for ruling sets (Observation 3.2), P_MM for maximal
//     matching (Observation 3.3) and the strong-list-coloring pruner of
//     Section 5.2;
//
//   - alternating algorithms (Section 3.3, Figure 1): running a sequence of
//     budget-restricted algorithms interleaved with a pruning algorithm so
//     that the global output never deteriorates (Observation 3.4);
//
//   - sequence-number machinery (Section 4.2): bounded set-sequences for
//     additive and product running-time bounds (Observation 4.1), exposed as
//     a small composable algebra;
//
//   - the transformers: Theorem 1 (Uniform), Theorem 2 (LasVegas),
//     Theorem 3 (UniformWeaklyDominated), Theorem 4 (FastestOf), Theorem 5
//     (UniformColoring via strong list coloring) and the Section 5.1
//     MIS-to-(deg+1)-coloring product construction.
//
// The package requires a 64-bit int: parameter guesses range up to 2^62
// (packed identities of derived graphs).
package core

import (
	"fmt"

	"github.com/unilocal/unilocal/internal/local"
)

// Param names a non-decreasing graph parameter in the sense of Section 2.
type Param string

// The parameters used by the paper's applications.
const (
	// ParamN is the number of nodes n.
	ParamN Param = "n"
	// ParamMaxDegree is the maximum degree Δ.
	ParamMaxDegree Param = "Delta"
	// ParamArboricity is the arboricity a.
	ParamArboricity Param = "a"
	// ParamMaxID is the maximum identity m (also used for "maximum initial
	// color" in the coloring applications of Section 5).
	ParamMaxID Param = "m"
)

// GuessCap is the largest guess value the machinery will produce; it
// accommodates the packed identities of derived graphs.
const GuessCap = int(1) << 62

// Params is the typed parameter vector Γ of Section 2: the guessed (or
// measured) values of the four graph parameters the paper's applications
// consume. An algorithm reads only the fields named by its Params() list;
// the others carry no meaning for it.
type Params struct {
	// N is the number of nodes n.
	N int
	// Delta is the maximum degree Δ.
	Delta int
	// Arb is the arboricity bound a.
	Arb int
	// M is the maximum identity m (also "maximum initial color").
	M int64
}

// NewParams builds the measured parameter vector of a concrete graph with
// the domain floor applied explicitly: n, m and the arboricity bound are
// positive integers by definition (Section 2), so degenerate measurements —
// n = 0 or m = 0 on an empty graph, an arboricity bound of 0 on an edgeless
// one — are raised to 1 here, in one visible place. Δ is NOT floored: 0 is
// its true value on an edgeless graph and every engine accepts it.
func NewParams(n, delta, arb int, m int64) Params {
	if n < 1 {
		n = 1
	}
	if arb < 1 {
		arb = 1
	}
	if m < 1 {
		m = 1
	}
	return Params{N: n, Delta: delta, Arb: arb, M: m}
}

// With returns a copy of p with the named parameter set to v.
func (p Params) With(q Param, v int) Params {
	switch q {
	case ParamN:
		p.N = v
	case ParamMaxDegree:
		p.Delta = v
	case ParamArboricity:
		p.Arb = v
	case ParamMaxID:
		p.M = int64(v)
	default:
		panic(fmt.Sprintf("core: unknown parameter %q", q))
	}
	return p
}

// String lists the vector in the paper's order.
func (p Params) String() string {
	return fmt.Sprintf("n=%d,Δ=%d,a=%d,m=%d", p.N, p.Delta, p.Arb, p.M)
}

// ParamsFromVector converts a positional guess vector — coordinates follow
// params, as emitted by a SetSequence — into a typed Params. The list must
// be duplicate-free; schedules whose coordinate lists repeat a parameter
// (Theorem 3's Λ may) translate positionally before reaching this form.
func ParamsFromVector(params []Param, vec []int) Params {
	if len(vec) < len(params) {
		panic(fmt.Sprintf("core: guess vector of arity %d for %d parameters", len(vec), len(params)))
	}
	var p Params
	for i, q := range params {
		for _, prev := range params[:i] {
			if prev == q {
				panic(fmt.Sprintf("core: duplicate parameter %q in vector conversion", q))
			}
		}
		p = p.With(q, vec[i])
	}
	return p
}

// NonUniform is a non-uniform local algorithm in the sense of Section 2: a
// black box whose code consumes the guessed values of the parameters in
// Params. The contract required by the transformers is:
//
//  1. WithParams(p) terminates at every node within the running-time bound
//     encoded by the SetSequence supplied alongside it, for any guesses;
//  2. if every guess is good (>= the true parameter value on the current
//     instance), the output solves the problem;
//  3. with bad guesses the output may be arbitrary (it is never trusted:
//     only the pruning algorithm certifies outputs).
type NonUniform interface {
	Name() string
	Params() []Param
	WithParams(p Params) local.Algorithm
}

// NonUniformFunc packages a NonUniform from closures.
type NonUniformFunc struct {
	AlgoName string
	Needs    []Param
	Build    func(p Params) local.Algorithm
}

// Name implements NonUniform.
func (a NonUniformFunc) Name() string { return a.AlgoName }

// Params implements NonUniform.
func (a NonUniformFunc) Params() []Param { return a.Needs }

// WithParams implements NonUniform.
func (a NonUniformFunc) WithParams(p Params) local.Algorithm { return a.Build(p) }

var _ NonUniform = NonUniformFunc{}

// AscFunc is an ascending function on positive integers: non-decreasing and
// tending to infinity (Section 2). Ascending functions are the building
// blocks of running-time bounds; MaxArg inverts them.
type AscFunc func(x int) int

// MaxArg returns the largest x in [1, GuessCap] with f(x) <= budget, or 0 if
// f(1) > budget. f must be non-decreasing.
func MaxArg(f AscFunc, budget int) int {
	if f(1) > budget {
		return 0
	}
	lo := 1 // f(lo) <= budget
	hi := 2
	for hi <= GuessCap/2 && f(hi) <= budget {
		lo = hi
		hi *= 2
	}
	if hi > GuessCap {
		hi = GuessCap
	}
	if f(hi) <= budget {
		return hi
	}
	// Invariant: f(lo) <= budget < f(hi).
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if f(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
