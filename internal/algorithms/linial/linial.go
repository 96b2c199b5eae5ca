// Package linial implements Linial's iterated color reduction (Linial 1987,
// 1992; Szegedy–Vishwanathan 1993): starting from the unique identities (an
// m-coloring), each round maps the current k-coloring to a q²-coloring using
// degree-d polynomials over the field F_q, where q is a prime with
// q >= Δ̃·d + 1 and q^(d+1) >= k. Iterating reaches a palette of O(Δ̃²)
// colors after log*(m̃) + O(1) rounds.
//
// The algorithm is non-uniform in the sense of the paper: its code uses the
// guesses Δ̃ (maximum degree) and m̃ (maximum identity/initial color), both
// of which determine the reduction schedule followed in lockstep by every
// node. With a good guess the output is a proper coloring with palette
// PaletteSize(Δ̃, m̃); with a bad guess nodes still terminate within
// RoundsBound(Δ̃, m̃) rounds but the output may be improper — exactly the
// black-box contract consumed by the transformers of the paper.
package linial

import (
	"math"
	"sync"

	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// maxPalette bounds initial colors; it accommodates the packed identities of
// derived graphs (line graphs, clique products).
const maxPalette = int64(1) << 62

// step is one reduction round: polynomials of degree at most d over F_q.
type step struct {
	q int64
	d int
}

// Schedule returns the deterministic reduction schedule for the guesses and
// the final palette size. It is a pure function of (deltaHat, mHat), so all
// nodes compute the same schedule, and it is memoized: the first call for a
// guess pair derives it (NextPrime trial division per candidate degree per
// step) and every later call, from any goroutine, returns the same shared
// steps. The returned slice is read-only.
//
// The memo is keyed by the clamped guess pair and never evicts. An entry
// costs about 100 B, and the keys come from the guess sequences of the
// transformers and the advertised parameters of specs: a localbench pass
// over scenarios/paper creates 28 entries.
func Schedule(deltaHat int, mHat int64) ([]step, int64) {
	deltaHat, mHat = clampGuesses(deltaHat, mHat)
	key := scheduleKey{deltaHat, mHat}
	if v, ok := schedules.Load(key); ok {
		e := v.(*scheduleEntry)
		return e.steps, e.palette
	}
	steps, palette := deriveSchedule(deltaHat, mHat)
	v, _ := schedules.LoadOrStore(key, &scheduleEntry{steps: steps, palette: palette})
	e := v.(*scheduleEntry)
	return e.steps, e.palette
}

// scheduleKey is a clamped guess pair; scheduleEntry its memoized schedule.
type scheduleKey struct {
	deltaHat int
	mHat     int64
}

type scheduleEntry struct {
	steps   []step
	palette int64
}

// schedules maps scheduleKey to *scheduleEntry. Entries are written once
// and then only read, the access pattern sync.Map is built for.
var schedules sync.Map

// clampGuesses maps the guesses into the domain the schedule is defined
// on: Δ̃ >= 0 and 1 <= m̃ <= maxPalette.
func clampGuesses(deltaHat int, mHat int64) (int, int64) {
	return max(deltaHat, 0), min(max(mHat, 1), maxPalette)
}

// deriveSchedule computes the schedule for clamped guesses.
func deriveSchedule(deltaHat int, mHat int64) ([]step, int64) {
	k := mHat
	var steps []step
	for {
		q, d, ok := bestStep(deltaHat, k)
		if !ok || q*q >= k {
			return steps, k
		}
		steps = append(steps, step{q: q, d: d})
		k = q * q
	}
}

// bestStep returns the (q, d) minimizing the new palette q² subject to
// q prime, q >= deltaHat*d+1 and q^(d+1) >= k.
func bestStep(deltaHat int, k int64) (int64, int, bool) {
	var bestQ int64
	bestD := 0
	for d := 1; d <= 62; d++ {
		lowDeg := int64(deltaHat)*int64(d) + 1
		root := ceilRoot(k, d+1)
		q := int64(mathutil.NextPrime(int(max64(lowDeg, root))))
		if powAtLeast(q, d+1, k) {
			if bestQ == 0 || q < bestQ {
				bestQ, bestD = q, d
			}
		}
		if root <= 2 && q >= lowDeg {
			// Larger d cannot help: the degree term only grows.
			break
		}
	}
	return bestQ, bestD, bestQ != 0
}

// ceilRoot returns the least r >= 1 with r^e >= k.
func ceilRoot(k int64, e int) int64 {
	if k <= 1 {
		return 1
	}
	r := int64(math.Ceil(math.Pow(float64(k), 1/float64(e))))
	for r > 1 && powAtLeast(r-1, e, k) {
		r--
	}
	for !powAtLeast(r, e, k) {
		r++
	}
	return r
}

// powAtLeast reports whether b^e >= k without overflowing.
func powAtLeast(b int64, e int, k int64) bool {
	if b <= 1 {
		return b >= k || (b == 1 && k <= 1)
	}
	acc := int64(1)
	for i := 0; i < e; i++ {
		if acc >= (k+b-1)/b {
			return true
		}
		acc *= b
	}
	return acc >= k
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// RoundsBound returns the exact number of rounds executed by New(deltaHat,
// mHat): one initial exchange plus one round per schedule step.
func RoundsBound(deltaHat int, mHat int64) int {
	steps, _ := Schedule(deltaHat, mHat)
	return len(steps) + 1
}

// PaletteSize returns the final palette size of New(deltaHat, mHat). For all
// guesses it is O(Δ̃² log² Δ̃); tests verify a concrete (3Δ̃+4)² envelope.
func PaletteSize(deltaHat int, mHat int64) int64 {
	_, k := Schedule(deltaHat, mHat)
	return k
}

// New returns the Linial reduction algorithm for the given guesses.
//
// Input convention: a node's initial color is its Input if that is an int or
// int64 in [1, m̃], and its identity otherwise. The output is the final
// color as an int in [1, PaletteSize(deltaHat, mHat)].
func New(deltaHat int, mHat int64) local.Algorithm {
	steps, _ := Schedule(deltaHat, mHat)
	return local.AlgorithmFunc{
		AlgoName: "linial-coloring",
		NewNode: func(info local.Info) local.Node {
			c := initialColor(info, mHat)
			return &node{info: info, steps: steps, mHat: mHat, color: c - 1} // 0-based internally
		},
	}
}

// initialColor extracts the starting color (1-based) from the node input.
func initialColor(info local.Info, mHat int64) int64 {
	var c int64
	switch v := info.Input.(type) {
	case int:
		c = int64(v)
	case int64:
		c = v
	default:
		c = info.ID
	}
	if c < 1 {
		c = 1
	}
	if c > mHat {
		// Bad guess for m: clamp so the node still terminates; the coloring
		// may be improper and is then handled by pruning.
		c = mHat
	}
	return c
}

type node struct {
	info  local.Info
	steps []step
	mHat  int64
	color int64 // current color, 0-based
}

func (n *node) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if r > 0 {
		st := n.steps[r-1]
		nbColors := make([]int64, 0, len(recv))
		for _, m := range recv {
			if c, ok := m.(int64); ok {
				nbColors = append(nbColors, c)
			}
		}
		n.color = reduceColor(n.color, nbColors, st)
	}
	if r == len(n.steps) {
		return nil, true
	}
	return local.Broadcast(n.color, n.info.Degree), false
}

// reduceColor maps a color in [0, k) to a color in [0, q²) such that any two
// adjacent distinct colors map to distinct colors.
func reduceColor(c int64, nbColors []int64, st step) int64 {
	q, d := st.q, st.d
	own := digitsBaseQ(c, q, d+1)
	polys := make([][]int64, 0, len(nbColors))
	for _, nc := range nbColors {
		if nc == c {
			// Improper input (possible under bad guesses): no x can work;
			// fall back to an arbitrary in-range color, pruning deals with
			// the consequences.
			return evalPoly(own, 0, q)
		}
		polys = append(polys, digitsBaseQ(nc, q, d+1))
	}
	// Two distinct degree-<=d polynomials agree on at most d points, so at
	// most len(polys)*d <= Δ̃d < q candidate x values are bad when the
	// degree guess is good.
	for x := int64(0); x < q; x++ {
		px := evalPoly(own, x, q)
		ok := true
		for _, p := range polys {
			if evalPoly(p, x, q) == px {
				ok = false
				break
			}
		}
		if ok {
			return x*q + px
		}
	}
	// Degree guess exceeded: arbitrary in-range fallback.
	return evalPoly(own, 0, q)
}

// digitsBaseQ returns the base-q digits of c (least significant first) as a
// polynomial coefficient vector of the given length.
func digitsBaseQ(c, q int64, coeffs int) []int64 {
	out := make([]int64, coeffs)
	for i := 0; i < coeffs && c > 0; i++ {
		out[i] = c % q
		c /= q
	}
	return out
}

// evalPoly evaluates the polynomial with the given coefficients at x over
// F_q (Horner's rule).
func evalPoly(coeffs []int64, x, q int64) int64 {
	var acc int64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
	}
	return acc
}

func (n *node) Output() any { return int(n.color + 1) }

var _ local.Node = (*node)(nil)
