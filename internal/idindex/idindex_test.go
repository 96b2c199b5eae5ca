package idindex_test

// The index is checked against a map[int64]int32 reference. Keys come from
// three pools: sequential and negative identities, the int64 extremes, and
// a pool whose hashes all share the same high bits, so every key of it has
// the same home slot in any table of up to 64 slots and probing runs the
// longest chains the load factor allows. FuzzIndexVsMap drives Add, Get
// and Reset in any order.

import (
	"math"
	"testing"

	"github.com/unilocal/unilocal/internal/idindex"
)

// phiInverse is the multiplicative inverse of the index's hash multiplier
// modulo 2^64, found by Newton iteration (each step doubles the correct
// low bits of an odd number's inverse).
func phiInverse() uint64 {
	const phi = 0x9e3779b97f4a7c15
	inv := uint64(phi)
	for range 6 {
		inv *= 2 - phi*inv
	}
	return inv
}

// colliding returns a key whose hash is h: for h < 2^58 its home slot is 0
// in every table of at most 64 slots.
func colliding(h uint64) int64 { return int64(h * phiInverse()) }

// decodeKey maps one byte to a key of the three pools.
func decodeKey(b byte) int64 {
	switch {
	case b >= 0xc0:
		return colliding(uint64(b & 0x3f))
	case b == 0xbf:
		return math.MinInt64
	case b == 0xbe:
		return math.MaxInt64
	default:
		return int64(b) - 0x60 // −96 … 93
	}
}

func TestCollidingKeysShareAHome(t *testing.T) {
	var x idindex.Index
	x.Reset(32)
	for h := uint64(0); h < 32; h++ {
		if !x.Add(colliding(h), int32(h)) {
			t.Fatalf("colliding key %d reported present before its Add", h)
		}
	}
	for h := uint64(0); h < 32; h++ {
		if v, ok := x.Get(colliding(h)); !ok || v != int32(h) {
			t.Fatalf("Get(colliding(%d)) = %d, %v; want %d, true", h, v, ok, h)
		}
	}
	if _, ok := x.Get(colliding(40)); ok {
		t.Fatal("absent colliding key found")
	}
}

func TestAddKeepsFirstValue(t *testing.T) {
	var x idindex.Index
	if !x.Add(-7, 1) || x.Add(-7, 2) {
		t.Fatal("Add must report new exactly once")
	}
	if v, ok := x.Get(-7); !ok || v != 1 {
		t.Fatalf("Get(-7) = %d, %v; want the first value 1", v, ok)
	}
}

func TestResetEmptiesAndGrowsOnce(t *testing.T) {
	var x idindex.Index
	for round := range 3 {
		x.Reset(100)
		for i := range 100 {
			if !x.Add(int64(i*round-50), int32(i)) && round > 0 {
				t.Fatalf("round %d: key %d survived Reset", round, i*round-50)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		x.Reset(100)
		for i := range 100 {
			x.Add(int64(i), int32(i))
		}
	})
	if allocs != 0 {
		t.Errorf("Reset to a hint the table holds, then Add up to it: %.0f allocs, want 0", allocs)
	}
}

// TestResetAcrossGenerationWrap stamps a key with the first generation,
// then resets across the wrap of the stamp, which brings the generation
// back to the first: the key must not read as live.
func TestResetAcrossGenerationWrap(t *testing.T) {
	var x idindex.Index
	x.Reset(8)
	x.Add(3, 3)
	idindex.SetGeneration(&x, math.MaxUint32)
	x.Reset(8)
	x.Add(11, 11)
	if _, ok := x.Get(3); ok {
		t.Fatal("key of a stale generation reads as live after the stamp wrapped")
	}
}

// FuzzIndexVsMap drives an Index and a map reference through the same
// operation stream: each op byte selects Add, Get, Reset or a lookup of
// every reference key, and the byte after it a key (or a Reset hint).
func FuzzIndexVsMap(f *testing.F) {
	f.Add([]byte{0, 0xc0, 0, 0xc1, 0, 0xc2, 1, 0xc1, 1, 0xc3, 3, 0})
	f.Add([]byte{0, 0x00, 0, 0xbf, 0, 0xbe, 2, 4, 1, 0xbf, 0, 0x61, 3, 0})
	f.Add([]byte{2, 200, 0, 5, 0, 5, 1, 5, 2, 0, 1, 5, 3, 0})
	seq := make([]byte, 0, 160)
	for b := byte(0xc0); b < 0xe8; b++ {
		seq = append(seq, 0, b)
	}
	f.Add(append(seq, 3, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var x idindex.Index
		ref := map[int64]int32{}
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k], ops[k+1]
			key := decodeKey(arg)
			switch op % 4 {
			case 0:
				_, had := ref[key]
				if !had {
					ref[key] = int32(k)
				}
				if added := x.Add(key, int32(k)); added == had {
					t.Fatalf("op %d: Add(%d) reported new=%v, reference had=%v", k, key, added, had)
				}
			case 1:
				want, had := ref[key]
				if got, ok := x.Get(key); ok != had || got != want {
					t.Fatalf("op %d: Get(%d) = %d, %v; reference %d, %v", k, key, got, ok, want, had)
				}
			case 2:
				x.Reset(int(arg) % 70)
				clear(ref)
			case 3:
				for key, want := range ref {
					if got, ok := x.Get(key); !ok || got != want {
						t.Fatalf("op %d: Get(%d) = %d, %v; reference %d", k, key, got, ok, want)
					}
				}
			}
		}
	})
}
