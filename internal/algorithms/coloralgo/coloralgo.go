// Package coloralgo assembles the non-uniform vertex-coloring algorithms of
// Table 1 from the Linial reduction and the batched color reductions:
//
//   - DeltaPlusOne: a (Δ̃+1)-coloring in O(Δ̃ log Δ̃ + log* m̃) rounds — the
//     stand-in for the Barenboim–Elkin '09 / Kuhn '09 row (which achieves
//     O(Δ + log* n); the extra log Δ̃ comes from the simpler halving
//     reduction, see DESIGN.md §4).
//
//   - Lambda: a λ(Δ̃+1)-coloring in O(Δ̃²/λ + log* m̃) rounds — the
//     trade-off row (more colors, fewer rounds).
//
// Both require the guesses Δ̃ and m̃ and terminate within their announced
// bounds for any guesses; correctness requires good guesses. BoundDelta and
// BoundM provide the monotone additive envelope f(Δ̃, m̃) = f₁(Δ̃) + f₂(m̃)
// consumed by the paper's Theorem 1 machinery (Observation 4.1: additive
// bounds have sequence number 1).
package coloralgo

import (
	"fmt"

	"github.com/unilocal/unilocal/internal/algorithms/linial"
	"github.com/unilocal/unilocal/internal/algorithms/reduce"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// composeSlack accounts for the stage hand-off rounds of local.Compose.
const composeSlack = 4

// StartPalette returns the palette produced by the Linial stage, saturated
// to int range.
func StartPalette(deltaHat int, mHat int64) int {
	p := linial.PaletteSize(deltaHat, mHat)
	if p > int64(1)<<31 {
		p = int64(1) << 31
	}
	return int(p)
}

// DeltaPlusOne returns the composed (Δ̃+1)-coloring algorithm. Input: unique
// identities (or an int initial color); output: int color in [1, Δ̃+1].
func DeltaPlusOne(deltaHat int, mHat int64) local.Algorithm {
	k := StartPalette(deltaHat, mHat)
	return local.Compose(
		fmt.Sprintf("coloring-Δ+1(Δ̃=%d)", deltaHat),
		local.Stage{Algo: linial.New(deltaHat, mHat)},
		local.Stage{Algo: reduce.ToDeltaPlusOne(k, deltaHat)},
	)
}

// DeltaPlusOneRounds bounds the running time of DeltaPlusOne.
func DeltaPlusOneRounds(deltaHat int, mHat int64) int {
	k := StartPalette(deltaHat, mHat)
	return linial.RoundsBound(deltaHat, mHat) + reduce.ToDeltaPlusOneRounds(k, deltaHat) + composeSlack
}

// Lambda returns the composed λ(Δ̃+1)-coloring algorithm.
func Lambda(lambda, deltaHat int, mHat int64) local.Algorithm {
	if lambda < 1 {
		lambda = 1
	}
	k := StartPalette(deltaHat, mHat)
	return local.Compose(
		fmt.Sprintf("coloring-λ(Δ+1)(λ=%d,Δ̃=%d)", lambda, deltaHat),
		local.Stage{Algo: linial.New(deltaHat, mHat)},
		local.Stage{Algo: reduce.Batched(k, lambda, deltaHat)},
	)
}

// LambdaPalette returns the number of colors used by Lambda.
func LambdaPalette(lambda, deltaHat int) int { return reduce.BatchedPalette(lambda, deltaHat) }

// PaletteEnvelope is a monotone envelope on the Linial palette: tests verify
// StartPalette(Δ̃, ·) <= (3Δ̃+4)².
func PaletteEnvelope(d int) int {
	if d < 0 {
		d = 0
	}
	return mathutil.SatMul(3*d+4, 3*d+4)
}

// BoundDelta is the ascending Δ̃-term of the additive running-time envelope
// of DeltaPlusOne: it dominates the halving reduction from the Linial
// palette plus all slack.
func BoundDelta(d int) int {
	if d < 0 {
		d = 0
	}
	perPass := mathutil.SatAdd(mathutil.SatMul(2, d+1), 3)
	passes := mathutil.CeilLog2(PaletteEnvelope(d)) + 2
	return mathutil.SatAdd(mathutil.SatMul(perPass, passes), 64)
}

// BoundM is the ascending m̃-term of the additive running-time envelope: it
// dominates the Linial stage (log* m̃ + O(1) rounds).
func BoundM(m int) int {
	if m < 1 {
		m = 1
	}
	return mathutil.LogStar(m) + 16
}

// LambdaBoundDelta is the ascending Δ̃-term for Lambda with the given λ.
func LambdaBoundDelta(lambda int, d int) int {
	if lambda < 1 {
		lambda = 1
	}
	if d < 0 {
		d = 0
	}
	return mathutil.SatAdd(mathutil.CeilDiv(PaletteEnvelope(d), lambda), 64)
}
