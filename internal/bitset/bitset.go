// Package bitset implements the dense word-level node-set representation
// the LOCAL engine's steady state runs on: a Set packs one bit per node
// into 64-bit words, so membership tests are a shift and a mask, whole-set
// operations (clear, fill, and-not, population count) touch n/64 words with
// branch-free instructions (POPCNT, TZCNT) instead of n bytes with a branch
// per element, and iterating the members of a sparse set skips 64 absent
// elements per word probe.
//
// The paper's uniform algorithms spend most of their simulated time in long
// pseudo-halted tails where almost every node is inactive every round; a
// Set is the right steady-state shape for that regime because the per-round
// bookkeeping cost is measured in words scanned, not nodes considered.
//
// Invariant (tail masking): for a Set of Len n, every bit at position >= n
// in the last word is zero. All mutators preserve it and Count and
// AppendSet rely on it; Fill establishes it explicitly. Storage beyond
// WordsFor(n) words may hold stale data from a larger previous use — Reset
// and Fill size the live window and never touch words past it (the
// word-granular lazy clear the engine's RunState pooling depends on).
//
// A Set is not safe for concurrent mutation. The engine's parallel workers
// each write only the words of their own range, so no word is shared.
package bitset

import "math/bits"

// WordsFor returns the number of 64-bit words backing a set of n bits.
func WordsFor(n int) int { return (n + 63) >> 6 }

// Set is a fixed-length bit set. The zero value is an empty set of length
// 0; Reset or Fill size it. See the package comment for the tail-masking
// invariant and the concurrency contract.
type Set struct {
	words []uint64
	n     int
}

// Len returns the length of the set in bits (the node count it covers).
func (s *Set) Len() int { return s.n }

// Words exposes the backing words for tight read loops (the engine's
// per-round scans iterate these directly rather than paying a call per
// member). The slice is exactly WordsFor(Len()) long; callers must not
// change its length or violate the tail-masking invariant when writing.
func (s *Set) Words() []uint64 { return s.words }

// size reslices the backing array to cover n bits without initializing the
// window, growing it when the capacity does not fit. It reports whether it
// allocated, so pooled holders can count buffer growth deterministically.
func (s *Set) size(n int) (grew bool) {
	w := WordsFor(n)
	if cap(s.words) < w {
		s.words = make([]uint64, w)
		grew = true
	} else {
		s.words = s.words[:w]
	}
	s.n = n
	return grew
}

// Reset makes s the empty set of n bits, clearing exactly the live word
// window (words past WordsFor(n) are left as they are — the lazy,
// word-granular clear). It reports whether the backing array grew.
func (s *Set) Reset(n int) (grew bool) {
	grew = s.size(n)
	if !grew {
		clear(s.words)
	}
	return grew
}

// Fill makes s the full set {0, …, n-1}, masking the tail bits of the last
// word to keep the invariant. It reports whether the backing array grew.
func (s *Set) Fill(n int) (grew bool) {
	grew = s.size(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		s.words[len(s.words)-1] = 1<<rem - 1
	}
	return grew
}

// Add inserts i into the set.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of members — a straight popcount over the live
// window, with no tail correction thanks to the masking invariant.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AppendSet appends every member to dst in ascending order and returns the
// extended slice — the rank materialization the adversarial permutation
// scheduler shuffles (member k of the result is the set's rank-k element).
func (s *Set) AppendSet(dst []int32) []int32 {
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// AndNotCount removes every member of t from s (s &^= t, word-wise) and
// returns the number of members left. This is the engine's between-rounds
// frontier update: one pass of and-not + popcount replaces the per-node
// compaction loop. t must have the same length as s.
func (s *Set) AndNotCount(t *Set) int {
	if s.n != t.n {
		panic("bitset: AndNotCount over sets of different lengths")
	}
	c := 0
	tw := t.words[:len(s.words)]
	for i := range s.words {
		w := s.words[i] &^ tw[i]
		s.words[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}
