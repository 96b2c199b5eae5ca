package bitset_test

// Exhaustive word-boundary tests for the Set representation. Every length
// that straddles a 64-bit word edge (63, 64, 65, 127, 129) is exercised
// empty, full and in mixed patterns, because the bugs a packed
// representation invites — an off-by-one in the tail mask, a scan running
// into stale storage past the live window, a popcount including tail bits —
// all live exactly at those boundaries. FuzzSetVsBool drives the whole API
// against a naive []bool reference.

import (
	"math/bits"
	"slices"
	"testing"

	"github.com/unilocal/unilocal/internal/bitset"
)

// boundaryLens is every length the boundary tests sweep: the word-edge
// straddlers from the issue plus degenerate and comfortable sizes.
var boundaryLens = []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 63: 1, 64: 1, 65: 2, 127: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := bitset.WordsFor(n); got != want {
			t.Errorf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// appendRef returns the members of ref in ascending order, the reference
// AppendSet is compared against.
func appendRef(ref []bool) []int32 {
	var out []int32
	for i, in := range ref {
		if in {
			out = append(out, int32(i))
		}
	}
	return out
}

func TestEmptySet(t *testing.T) {
	for _, n := range boundaryLens {
		var s bitset.Set
		if grew := s.Reset(n); n > 0 && !grew {
			t.Fatalf("n=%d: fresh Reset did not report growth", n)
		}
		if s.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, s.Len())
		}
		if got := s.Count(); got != 0 {
			t.Errorf("n=%d: empty Count = %d", n, got)
		}
		if got := s.AppendSet(nil); len(got) != 0 {
			t.Errorf("n=%d: empty AppendSet = %v", n, got)
		}
		for i := 0; i < n; i++ {
			if s.Contains(i) {
				t.Fatalf("n=%d: empty set contains %d", n, i)
			}
		}
	}
}

func TestFullSet(t *testing.T) {
	for _, n := range boundaryLens {
		var s bitset.Set
		s.Fill(n)
		if got := s.Count(); got != n {
			t.Errorf("n=%d: full Count = %d", n, got)
		}
		if n == 0 {
			continue
		}
		// The tail-masking invariant, checked directly on the last word.
		words := s.Words()
		if rem := uint(n) & 63; rem != 0 {
			if want := uint64(1)<<rem - 1; words[len(words)-1] != want {
				t.Errorf("n=%d: last word %#x, want tail-masked %#x", n, words[len(words)-1], want)
			}
		}
		members := s.AppendSet(nil)
		if len(members) != n {
			t.Fatalf("n=%d: AppendSet materialized %d members", n, len(members))
		}
		for k, i := range members {
			if int(i) != k {
				t.Fatalf("n=%d: AppendSet rank %d = %d", n, k, i)
			}
		}
		// Removing every member through the engine's frontier update must
		// leave nothing behind, tail bits included.
		var all bitset.Set
		all.Fill(n)
		if got := s.AndNotCount(&all); got != 0 {
			t.Errorf("n=%d: full AndNotCount(full) = %d", n, got)
		}
	}
}

// TestBoundaryMembership plants single bits at every position near word
// edges and checks membership, rank materialization and count around each.
func TestBoundaryMembership(t *testing.T) {
	for _, n := range []int{63, 64, 65, 127, 129} {
		for _, i := range []int{0, 1, 62, 63, 64, 65, 126, 127, 128} {
			if i >= n {
				continue
			}
			var s bitset.Set
			s.Reset(n)
			s.Add(i)
			if !s.Contains(i) {
				t.Fatalf("n=%d: Add(%d) not visible", n, i)
			}
			if i > 0 && s.Contains(i-1) || i+1 < n && s.Contains(i+1) {
				t.Fatalf("n=%d: Add(%d) leaked into a neighbouring bit", n, i)
			}
			if got := s.Count(); got != 1 {
				t.Fatalf("n=%d bit=%d: Count = %d", n, i, got)
			}
			if got := s.AppendSet(nil); len(got) != 1 || int(got[0]) != i {
				t.Fatalf("n=%d bit=%d: AppendSet = %v", n, i, got)
			}
			var one bitset.Set
			one.Reset(n)
			one.Add(i)
			if got := s.AndNotCount(&one); got != 0 || s.Contains(i) {
				t.Fatalf("n=%d: AndNotCount of {%d} left %d members", n, i, got)
			}
		}
	}
}

// TestClearThenScan pins the lazy-clear contract: a Reset after a larger,
// fully-populated use must leave no stale member visible to any scan, even
// though storage past the new window is deliberately untouched.
func TestClearThenScan(t *testing.T) {
	for _, big := range []int{129, 200} {
		for _, small := range []int{1, 63, 64, 65, 127} {
			var s bitset.Set
			s.Fill(big)
			s.Reset(small)
			if got := s.Count(); got != 0 {
				t.Errorf("Fill(%d) then Reset(%d): Count = %d", big, small, got)
			}
			if got := s.AppendSet(nil); len(got) != 0 {
				t.Errorf("stale members %v survived Reset(%d)", got, small)
			}
			if got := len(s.Words()); got != bitset.WordsFor(small) {
				t.Errorf("Reset(%d): %d live words, want %d", small, got, bitset.WordsFor(small))
			}
			// A Fill of the smaller window must mask the stale tail too.
			s.Fill(small)
			if got := s.Count(); got != small {
				t.Errorf("Fill(%d) after Fill(%d): Count = %d", small, big, got)
			}
			// And the other direction: growing back must not resurrect bits.
			if small < big {
				s.Reset(big)
				if got := s.Count(); got != 0 {
					t.Errorf("Reset(%d) after Reset(%d): Count = %d", big, small, got)
				}
			}
		}
	}
}

func TestAndNotCount(t *testing.T) {
	for _, n := range []int{63, 64, 65, 127, 129} {
		var s, d bitset.Set
		s.Fill(n)
		d.Reset(n)
		for i := 0; i < n; i += 3 {
			d.Add(i)
		}
		want := n - d.Count()
		if got := s.AndNotCount(&d); got != want {
			t.Fatalf("n=%d: AndNotCount = %d, want %d", n, got, want)
		}
		for i := 0; i < n; i++ {
			if s.Contains(i) != (i%3 != 0) {
				t.Fatalf("n=%d: member %d = %v after and-not", n, i, s.Contains(i))
			}
		}
		// Idempotent: removing the same members again changes nothing.
		if got := s.AndNotCount(&d); got != want {
			t.Fatalf("n=%d: second AndNotCount = %d, want %d", n, got, want)
		}
	}
}

func TestAppendSetRanks(t *testing.T) {
	var s bitset.Set
	s.Reset(129)
	members := []int{0, 1, 63, 64, 65, 100, 127, 128}
	for _, i := range members {
		s.Add(i)
	}
	got := s.AppendSet(nil)
	if len(got) != len(members) {
		t.Fatalf("AppendSet returned %d members, want %d", len(got), len(members))
	}
	for k, i := range members {
		if int(got[k]) != i {
			t.Errorf("rank %d = %d, want %d", k, got[k], i)
		}
	}
}

// FuzzSetVsBool drives a Set and a []bool reference through the same
// operation stream and requires every observable — membership, count,
// rank order, and-not — to agree. Each op byte selects an operation (add,
// remove through AndNotCount of a singleton, or a mid-stream check) and
// each following byte a position; lengths cycle through word boundaries.
func FuzzSetVsBool(f *testing.F) {
	f.Add(63, []byte{0, 1, 2, 3})
	f.Add(64, []byte{0, 63, 1, 64})
	f.Add(65, []byte{5, 9, 64, 13, 0})
	f.Add(129, []byte{128, 7, 127, 2, 64, 11})
	f.Fuzz(func(t *testing.T, n int, ops []byte) {
		if n < 0 || n > 512 {
			t.Skip()
		}
		var s bitset.Set
		s.Reset(n)
		ref := make([]bool, n)
		for k := 0; k+1 < len(ops); k += 2 {
			if n == 0 {
				break
			}
			i := int(ops[k+1]) % n
			switch ops[k] % 3 {
			case 0:
				s.Add(i)
				ref[i] = true
			case 1:
				var one bitset.Set
				one.Reset(n)
				one.Add(i)
				ref[i] = false
				if got, want := s.AndNotCount(&one), len(appendRef(ref)); got != want {
					t.Fatalf("AndNotCount(%d) = %d, want %d", i, got, want)
				}
			case 2: // rank checkpoints mid-stream
				if got, want := s.AppendSet(nil), appendRef(ref); !slices.Equal(got, want) {
					t.Fatalf("AppendSet = %v, want %v", got, want)
				}
			}
		}
		count := 0
		for i := range ref {
			if s.Contains(i) != ref[i] {
				t.Fatalf("bit %d: set=%v ref=%v", i, s.Contains(i), ref[i])
			}
			if ref[i] {
				count++
			}
		}
		if got := s.Count(); got != count {
			t.Fatalf("Count = %d, want %d", got, count)
		}
		if got, want := s.AppendSet(nil), appendRef(ref); !slices.Equal(got, want) {
			t.Fatalf("AppendSet = %v, want %v", got, want)
		}
		// AndNotCount against a random-ish mask derived from the op bytes.
		var mask bitset.Set
		mask.Reset(n)
		for i := 0; i < n; i++ {
			if len(ops) > 0 && ops[i%len(ops)]&1 == 1 {
				mask.Add(i)
			}
		}
		want := 0
		for i := range ref {
			if ref[i] && !mask.Contains(i) {
				want++
			}
		}
		if got := s.AndNotCount(&mask); got != want {
			t.Fatalf("AndNotCount = %d, want %d", got, want)
		}
	})
}

// sink defeats dead-code elimination in the benchmarks.
var sink int

func BenchmarkBitsetAndNotCount(b *testing.B) {
	const n = 1 << 16
	var s, d bitset.Set
	s.Fill(n)
	d.Reset(n)
	for i := 0; i < n; i += 7 {
		d.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = s.AndNotCount(&d)
	}
}

func BenchmarkBitsetSparseScan(b *testing.B) {
	// The long-tail shape: 1 in 64 nodes live on a 64k-node graph.
	const n = 1 << 16
	var s bitset.Set
	s.Reset(n)
	for i := 0; i < n; i += 64 {
		s.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc := 0
		for _, w := range s.Words() {
			for ; w != 0; w &= w - 1 {
				acc += bits.TrailingZeros64(w)
			}
		}
		sink = acc
	}
}
