// Package idindex maps node identities to small non-negative positions
// (an index into a ball, an arena or a sorted neighbour list) with open
// addressing over one flat slot table. It replaces map[int64]int32 on the
// transformer's gather path and in the Power lift, where a node looks up a
// ball member once per received record.
//
// The table is a power of two in length and at most half full, so linear
// probing stays short. Slots carry a generation stamp: Reset empties the
// index by bumping the generation instead of clearing the table, so a node
// that once gathered a large ball does not pay for it again in every later,
// smaller window. Probing hashes with the Fibonacci multiplier, which
// spreads sequential, shuffled and negative identities alike.
//
// An Index is not safe for concurrent use; each node owns its own.
package idindex

import "math/bits"

// slot is live iff gen equals the index's current generation.
type slot struct {
	key int64
	val int32
	gen uint32
}

// Index is an identity → position map. The zero value is an empty index
// ready for use.
type Index struct {
	slots []slot
	gen   uint32
	n     int
	shift uint // 64 − log2(len(slots))
}

// minSlots is the smallest table the index allocates.
const minSlots = 8

// Reset empties the index and makes room for hint keys, so the next hint
// calls to Add do not grow the table. The table is reallocated only when it
// is too small for hint; otherwise Reset costs one generation bump.
func (x *Index) Reset(hint int) {
	x.n = 0
	if 2*hint > len(x.slots) {
		x.alloc(2 * hint)
		return
	}
	x.gen++
	if x.gen == 0 {
		// The stamp wrapped: stale slots could read as live.
		clear(x.slots)
		x.gen = 1
	}
}

// Add maps key to val unless key is present, and reports whether key was
// new. An existing mapping is left unchanged.
func (x *Index) Add(key int64, val int32) bool {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			*s = slot{key: key, val: val, gen: x.gen}
			x.n++
			return true
		}
		if s.key == key {
			return false
		}
	}
}

// Get returns the value mapped to key and whether key is present.
func (x *Index) Get(key int64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// home is key's first probe position.
func (x *Index) home(key int64) int {
	return int((uint64(key) * 0x9e3779b97f4a7c15) >> x.shift)
}

// alloc replaces the table with an empty one of at least want slots.
func (x *Index) alloc(want int) {
	size := minSlots
	if want > minSlots {
		size = 1 << bits.Len(uint(want-1))
	}
	x.slots = make([]slot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	x.gen = 1
}

// grow doubles the table and re-inserts the live keys.
func (x *Index) grow() {
	old, gen := x.slots, x.gen
	x.alloc(2 * len(old))
	mask := len(x.slots) - 1
	for _, s := range old {
		if s.gen != gen {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].gen == x.gen {
			i = (i + 1) & mask
		}
		x.slots[i] = slot{key: s.key, val: s.val, gen: x.gen}
	}
}
