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

	// Per-round scratch, reused: send is the broadcast slice, carrying a
	// pointer into out, the color double-buffered by round parity as the
	// message-reuse rule of local.Node allows; nbColors and digits hold
	// the received colors and their base-q digit vectors.
	send     []local.Message
	out      [2]colorMsg
	nbColors []int64
	digits   []int64
}

// colorMsg is the color a node broadcasts, sent by pointer.
type colorMsg struct{ c int64 }

func (n *node) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if r > 0 {
		st := n.steps[r-1]
		n.nbColors = n.nbColors[:0]
		for _, m := range recv {
			if c, ok := m.(*colorMsg); ok {
				n.nbColors = append(n.nbColors, c.c)
			}
		}
		n.color, n.digits = reduceColor(n.color, n.nbColors, st, n.digits)
	}
	if r == len(n.steps) || n.info.Degree == 0 {
		return nil, r == len(n.steps)
	}
	msg := &n.out[r&1]
	msg.c = n.color
	if n.send == nil {
		n.send = make([]local.Message, n.info.Degree)
	}
	for p := range n.send {
		n.send[p] = msg
	}
	return n.send, false
}

// reduceColor maps a color in [0, k) to a color in [0, q²) such that any two
// adjacent distinct colors map to distinct colors. digits is scratch for
// the colors' base-q digit vectors, reused across calls: it is grown if
// needed and returned.
func reduceColor(c int64, nbColors []int64, st step, digits []int64) (int64, []int64) {
	q, w := st.q, st.d+1
	if need := (len(nbColors) + 1) * w; cap(digits) < need {
		digits = make([]int64, need)
	}
	own := digitsBaseQ(digits[:w], c, q)
	for i, nc := range nbColors {
		if nc == c {
			// Improper input (possible under bad guesses): no x can work;
			// fall back to an arbitrary in-range color, pruning deals with
			// the consequences.
			return evalPoly(own, 0, q), digits
		}
		digitsBaseQ(digits[(i+1)*w:(i+2)*w], nc, q)
	}
	polys := digits[w : (len(nbColors)+1)*w]
	// Two distinct degree-<=d polynomials agree on at most d points, so at
	// most len(nbColors)*d <= Δ̃d < q candidate x values are bad when the
	// degree guess is good.
	for x := int64(0); x < q; x++ {
		px := evalPoly(own, x, q)
		ok := true
		for i := 0; i < len(polys); i += w {
			if evalPoly(polys[i:i+w], x, q) == px {
				ok = false
				break
			}
		}
		if ok {
			return x*q + px, digits
		}
	}
	// Degree guess exceeded: arbitrary in-range fallback.
	return evalPoly(own, 0, q), digits
}

// digitsBaseQ writes the base-q digits of c (least significant first) into
// out, a polynomial coefficient vector, and returns it.
func digitsBaseQ(out []int64, c, q int64) []int64 {
	for i := range out {
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
