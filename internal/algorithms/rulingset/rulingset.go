// Package rulingset provides the ruling-set engine of Table 1's
// "(2, 2(c+1))-ruling set" row (Schneider–Wattenhofer regime; see DESIGN.md
// §4 for the substitution note): TruncatedPowerLuby, Luby's MIS on the power
// graph G^β restricted to a budget derived from the guess ñ — a weak Monte
// Carlo (2, β)-ruling set algorithm (in fact (β+1, β)), the engine fed to
// Theorem 2 to produce a uniform Las Vegas ruling-set algorithm.
package rulingset

import (
	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// TruncatedPowerLuby returns Luby's MIS on G^β restricted to a budget
// derived from the node-count guess ñ: a weak Monte Carlo (2, β)-ruling-set
// algorithm with guarantee at least 1/2 under good guesses.
func TruncatedPowerLuby(beta, nHat int) local.Algorithm {
	if beta < 1 {
		beta = 1
	}
	return local.RestrictRounds(lift.Power(beta, luby.New()), PowerLubyRounds(beta, nHat))
}

// PowerLubyRounds is the truncation budget for TruncatedPowerLuby: the
// lift multiplies each of O(log ñ) Luby rounds by β hops, plus β discovery
// rounds.
func PowerLubyRounds(beta, nHat int) int {
	if beta < 1 {
		beta = 1
	}
	return mathutil.SatMul(beta, luby.Rounds(nHat)+2) + beta + 2
}
