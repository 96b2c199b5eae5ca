package local

import (
	"math/bits"
	"sync"

	"github.com/unilocal/unilocal/internal/bitset"
)

// RunState holds every per-run buffer the simulation engine needs: the node
// state-machine slice, the halted and frontier bitsets, the neighbour-identity
// arena, the two flat message lanes, the per-worker tallies and the parallel-
// partition scratch. Extracting them from Run makes warm runs on same-shaped
// graphs near-zero-alloc: a state is prepared (resliced and selectively
// cleared, never reallocated) instead of built from scratch, and Run recycles
// states through an internal size-bucketed pool when the caller does not
// supply one.
//
// The zero value is ready to use. A RunState may be reused across any number
// of sequential Runs on graphs of any shape (buffers grow as needed and
// persist), but it must never be shared by two concurrent Runs. Results are
// byte-identical to fresh-state runs for every reuse pattern and worker
// count; TestRunStatePooledReuseByteIdentical enforces this differentially.
//
// Buffers that escape into the returned Result (Outputs, HaltRounds) are
// deliberately NOT part of the state: a Result stays valid after its
// RunState is reused or released.
type RunState struct {
	states  []Node
	idArena []int64
	inbox   []Message
	next    []Message
	// tallies holds one message counter per worker: the coordinator's is
	// tallies[0], the only one a sequential or permuted run writes.
	tallies []workerTally

	// halted and active are the engine's two word-level node sets: active is
	// the round's live frontier (read-only while a round is stepped), halted
	// collects the round's terminations and is folded into active between
	// rounds (bitset.Set.AndNotCount). Both are n/64 words — their growth is
	// word-granular and tracked by the Reset/Fill grew results, never inferred
	// from the n-sized buffers' class math (a pooled state can grow its
	// n-sized buffers without crossing a word boundary, and vice versa).
	halted bitset.Set
	active bitset.Set
	// perm is the adversarial permutation scratch: the frontier's members
	// materialized by rank, then shuffled and stepped in that order on one
	// worker. Lazily grown — lockstep runs never allocate it.
	perm []int32
	// cuts holds the popcount-balanced word-partition boundaries of a
	// parallel round (at most workers-1 entries).
	cuts []int32

	// lanesDirty records that inbox/next may hold stale messages from a
	// previous run (slots of halted nodes are never cleared during a run, see
	// engine.go), so prepare must wipe them before the lanes are trusted.
	lanesDirty bool
	// lanesHigh is the lane count of the previous run — the exact bound of
	// the possibly-dirty region. It is reset to the current run's lanes by
	// every prepare (everything beyond is clean by then), so a small run
	// after a large one wipes O(its own lanes), not O(largest ever).
	lanesHigh int
	// allocs counts the buffer allocations this state has performed. Warm
	// runs leave it unchanged; the sweep scheduler reads per-run deltas from
	// it as a deterministic, concurrency-safe allocation metric.
	allocs uint64
}

// Allocs returns the cumulative number of engine-buffer allocations this
// state has performed. The counter is deterministic (no GC or cross-goroutine
// noise): a run on a shape the state has already seen adds zero.
func (s *RunState) Allocs() uint64 { return s.allocs }

// prepare sizes every buffer for a run on n nodes, lanes directed edges and
// the given worker count, clearing exactly the per-run data that must not
// leak between runs (halt bits, the frontier, stale lane slots, tallies).
func (s *RunState) prepare(n, lanes, workers int) {
	if cap(s.states) < n {
		s.states = make([]Node, n)
		s.allocs++
	} else {
		// Every slot [0, n) is overwritten by the wake-up loop; stale Node
		// pointers beyond n were cleared on release (pool path) or keep the
		// previous run's nodes alive only until the next larger run (explicit
		// reuse), which matches the old one-allocation-per-run lifetime.
		s.states = s.states[:n]
	}
	// The bitsets clear (or fill) exactly their WordsFor(n) live window;
	// words past it stay stale until a larger run resizes into them. Their
	// growth is counted from what actually grew: across a release/acquire
	// cycle an n-sized buffer can grow while the word count stands still
	// (n 120 → 128 keeps 2 words) or stays inside one size class while the
	// word count grows, so charging them alongside the n-sized buffers
	// would make the alloc counter shape-dependent in the wrong dimension.
	if s.halted.Reset(n) {
		s.allocs++
	}
	if s.active.Fill(n) {
		s.allocs++
	}
	if cap(s.idArena) < lanes {
		s.idArena = make([]int64, 0, lanes)
		s.allocs++
	} else {
		s.idArena = s.idArena[:0]
	}
	if cap(s.inbox) < lanes {
		s.inbox = make([]Message, lanes)
		s.next = make([]Message, lanes)
		s.allocs += 2
		s.lanesDirty = false
	} else {
		s.inbox = s.inbox[:lanes]
		s.next = s.next[:lanes]
		if s.lanesDirty {
			// Wipe the union of the previous run's dirty region and this
			// run's window (reslicing past len up to cap is what bounds the
			// clear when the previous run was the larger one).
			high := max(s.lanesHigh, lanes)
			clear(s.inbox[:high])
			clear(s.next[:high])
			s.lanesDirty = false
		}
	}
	// Every slot beyond lanes is clean now — freshly allocated, just wiped,
	// or never dirtied — and the coming run writes only [0, lanes).
	s.lanesHigh = lanes
	if workers > 1 && cap(s.cuts) < workers {
		s.cuts = make([]int32, 0, workers)
		s.allocs++
	}
	if cap(s.tallies) < workers {
		s.tallies = make([]workerTally, workers)
		s.allocs++
	} else {
		s.tallies = s.tallies[:workers]
		for w := range s.tallies {
			s.tallies[w] = workerTally{}
		}
	}
}

// permScratch returns the permutation scratch resliced to length zero with
// capacity for n ranks, growing it on first use (only the permuted scheduler
// pays for it).
func (s *RunState) permScratch(n int) []int32 {
	if cap(s.perm) < n {
		s.perm = make([]int32, 0, n)
		s.allocs++
	}
	return s.perm[:0]
}

// runStatePools buckets reusable states by the power-of-two class of their
// dominant dimension (nodes + lane slots), so a warm Run on a same-shaped
// graph pops a state whose buffers already fit and never grows them, while
// wildly different shapes never evict each other's buffers. The bitsets ride
// along: their word capacity is derived from the same node dimension
// (WordsFor is monotone in n), so a state whose states buffer fits a shape
// can at worst grow one word tail — they contribute growth accounting (see
// prepare) but never a class dimension.
var runStatePools [bits.UintSize + 1]sync.Pool

func stateSizeClass(n, lanes int) int { return bits.Len(uint(n + lanes)) }

// AcquireRunState fetches a reusable engine state for a graph with n nodes
// and edges edges from the internal size-bucketed pool (allocating an empty
// one on pool miss). Callers that drive many whole simulations — the sweep
// scheduler's workers — hold one state per goroutine and pass it via
// Options.State; everyone else can ignore this: Run pools automatically when
// Options.State is nil.
func AcquireRunState(n, edges int) *RunState {
	if st, _ := runStatePools[stateSizeClass(n, 2*edges)].Get().(*RunState); st != nil {
		return st
	}
	return &RunState{}
}

// Release returns the state to the pool it is bucketed in by its current
// capacity — deliberately not the shape it was acquired under: a sweep
// worker's state grows to the largest job it ever ran, and re-bucketing on
// every Release keeps the pool's size classes truthful (a class never holds
// a state smaller than its label implies; the grow-then-release regression
// tests pin this). The caller must not use the state afterwards; Results
// produced with it remain valid (they never alias pooled memory).
func (s *RunState) Release() {
	// Drop the node state machines and the lane contents so the pool doesn't
	// pin a dead run's algorithm state or final message values — a released
	// state may sit in the pool for a whole GC cycle. This is the same wipe
	// prepare would do lazily, just paid up front.
	clear(s.states[:cap(s.states)])
	if s.lanesDirty {
		clear(s.inbox)
		clear(s.next)
		s.lanesDirty = false
		s.lanesHigh = 0
	}
	runStatePools[stateSizeClass(cap(s.states), cap(s.inbox))].Put(s)
}
