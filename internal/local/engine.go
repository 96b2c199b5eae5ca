package local

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"

	"github.com/unilocal/unilocal/internal/graph"
)

// DefaultMaxRounds is the safety cap on simulated rounds; exceeding it means
// the algorithm failed to terminate (for a correct transformer this implies
// a broken running-time bound, which the cap surfaces as an error instead of
// an endless loop).
const DefaultMaxRounds = 1 << 21

// ErrMaxRounds reports that a simulation was cut off before all nodes
// terminated.
var ErrMaxRounds = errors.New("local: max rounds exceeded before termination")

// ErrCanceled reports that a simulation was stopped by its context before all
// nodes terminated. The returned error also wraps the context's own error, so
// errors.Is works against both ErrCanceled and context.Canceled /
// context.DeadlineExceeded.
var ErrCanceled = errors.New("local: run canceled")

// Options configures a simulation run. The zero value selects defaults:
// seed 0, DefaultMaxRounds, parallel execution across GOMAXPROCS workers.
type Options struct {
	// Seed drives all node randomness deterministically.
	Seed int64
	// MaxRounds caps the simulation; 0 means DefaultMaxRounds.
	MaxRounds int
	// Context, when non-nil, stops the simulation early: the engine checks it
	// once per round (between rounds, never mid-round, so a run that is not
	// stopped stays byte-identical to an uncancelled one) and returns an error
	// wrapping ErrCanceled and the context's error. nil means run to
	// completion.
	Context context.Context
	// Sequential forces single-threaded execution. Results are identical to
	// parallel execution; this is exercised by tests and useful for tracing.
	Sequential bool
	// Workers overrides the worker count for parallel execution; 0 means
	// GOMAXPROCS.
	Workers int
	// State optionally supplies a reusable engine state (see RunState). If
	// nil, Run recycles one from an internal size-bucketed pool. A non-nil
	// State must not be used by two Runs concurrently; results are
	// byte-identical either way.
	State *RunState
	// Permute, when non-nil, steps each round's frontier in a seeded
	// pseudo-random order instead of ascending node order — the adversarial
	// message-delivery permutation of the synchronous model. The permutation
	// is applied to set-bit ranks: the round's live set is materialized from
	// the frontier bitset in ascending order (member k is the rank-k live
	// node) and that rank list is shuffled. A round's sends are invisible
	// until the next round (the two message lanes), so results are
	// byte-identical to the lockstep order at any worker count; what the
	// permutation diversifies is the memory-access and worker-partition
	// order, which the determinism tests pin.
	Permute *Permute
}

// Result reports the outcome of a simulation.
type Result struct {
	// Outputs holds each node's final output, indexed like the graph.
	Outputs []any
	// HaltRounds[u] is the 0-based round index in which node u terminated.
	HaltRounds []int
	// Rounds is the running time of the execution: the number of rounds
	// until every node had terminated (max HaltRounds + 1).
	Rounds int
	// Messages is the total number of (non-nil) messages delivered.
	Messages int64
	// Steps is the total number of node-rounds live, stepped or skipped:
	// the sum over rounds of the live-frontier size, including the rounds
	// of a silent stretch the engine skipped (see Sleeper), so it is not
	// the number of Round calls. It is a deterministic, machine-independent
	// measure of the work a run accounts for (the instruction-count proxy
	// BENCH.json tracks), identical for any worker count or scheduler.
	Steps int64
}

// FrontierOccupancy returns the mean fraction of nodes live per round:
// Steps / (Rounds × n), counting node-rounds live, stepped or skipped. The
// paper's uniform algorithms spend most rounds in sparse pseudo-halted
// tails, so low occupancy is the common steady state — the regime the
// bitset frontier representation is shaped for.
func (r *Result) FrontierOccupancy() float64 {
	slots := int64(r.Rounds) * int64(len(r.HaltRounds))
	if slots == 0 {
		return 0
	}
	return float64(r.Steps) / float64(slots)
}

// workerTally accumulates one worker's round statistics. It is padded to a
// cache line so the per-message counters of different workers never share a
// line (the per-node counter array of the previous engine caused false
// sharing on every delivery).
type workerTally struct {
	msgs int64
	err  error
	_    [40]byte
}

// job is one round's work assignment for a pooled worker: the round number
// and either an explicit node list (the permuted scheduler's shuffled
// ranks) or a word range [loW, hiW) of the frontier bitset to scan.
type job struct {
	r        int
	items    []int32
	loW, hiW int32
}

// Run simulates algorithm a on graph g until every node has terminated and
// returns the outputs and round statistics. All nodes wake up simultaneously
// at round 0, per the paper's Section 2 reduction (non-simultaneous wake-up
// is handled by Compose/WithWakeup, which are themselves Algorithms).
//
// The engine keeps the live-node frontier and the halted set as word-level
// bitsets (internal/bitset): a round scans the frontier's words with
// branch-free bit tricks (64 nodes per probe, so the long pseudo-halted
// tails of the paper's uniform algorithms cost words-scanned, not
// nodes-considered), halting nodes set their bit in the halted set, and the
// between-rounds frontier update is one and-not + popcount pass instead of
// a per-node compaction. Messages travel through two flat lanes of 2|E|
// slots indexed by the graph's dense directed-edge numbering
// (graph.AdjOffset), and parallel execution reuses a persistent worker pool
// with one channel hand-off per worker per round; parallel rounds partition
// the frontier into popcount-balanced word ranges, so workers never share a
// word and each owns a contiguous slice of the lanes' locality. Sequential
// and parallel runs produce byte-identical Results for any worker count.
func Run(g *graph.Graph, a Algorithm, opts Options) (*Result, error) {
	n := g.N()
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Sequential || workers > n {
		workers = 1
	}

	// Every per-run buffer below lives in a RunState: resliced, selectively
	// cleared and reused across runs instead of reallocated (see runstate.go).
	// Only haltRounds and outputs are built fresh — they escape into the
	// returned Result and must survive the state's next reuse.
	lanes := 2 * g.NumEdges()
	st := opts.State
	if st == nil {
		st = AcquireRunState(n, g.NumEdges())
		defer st.Release()
	}
	st.prepare(n, lanes, workers)
	st.lanesDirty = true
	states := st.states
	halted := &st.halted
	active := &st.active
	haltRounds := make([]int, n)
	outputs := make([]any, n)
	// All neighbour-ID slices are carved from one flat arena (the CSR
	// layout makes the total exactly 2|E|), one allocation instead of n.
	idArena := st.idArena
	for u := 0; u < n; u++ {
		start := len(idArena)
		idArena = g.NeighborIDs(idArena, u)
		info := Info{
			ID:        g.ID(u),
			Degree:    g.Degree(u),
			Neighbors: idArena[start:len(idArena):len(idArena)],
			Rand:      DeriveRand(opts.Seed, g.ID(u), 0),
		}
		states[u] = a.New(info)
	}
	st.idArena = idArena

	// Flat message lanes: slot AdjOffset(u)+k carries the message awaiting u
	// on port k. A node clears only its own inbox slots after reading them
	// (one batched memclr per inbox window, a cache-line-wide wipe instead
	// of a branch per port); slots of halted nodes are never read again, so
	// no global wipe of the lanes is ever needed during a run (prepare wipes
	// stale slots once, before the next reuse).
	inbox := st.inbox
	next := st.next

	// The frontier bitset holds the live nodes; all n are live at wake-up.
	// Halts recorded during a round go to the halted bitset — atomically
	// when workers can share a word — and are folded into the frontier
	// between rounds, so the frontier is immutable while a round is stepped.
	activeWords := active.Words()
	numWords := int32(len(activeWords))
	atomicHalt := workers > 1

	tallies := st.tallies
	// stepNode advances one live node one round; the returned count is the
	// node's sent messages, accumulated per driver so the shared tally is
	// written once per hand-off, not once per delivery.
	stepNode := func(t *workerTally, r, u int) int64 {
		off := g.AdjOffset(u)
		deg := g.Degree(u)
		recv := inbox[off : off+deg]
		send, done := states[u].Round(r, recv)
		if len(send) != 0 && len(send) != deg {
			t.err = fmt.Errorf("local: %s: node %d sent %d messages with degree %d",
				a.Name(), u, len(send), deg)
			return 0
		}
		// Clear only the slots that were actually written: in the sparse
		// steady state a live node usually received nothing, and skipping
		// the store keeps its inbox's cache lines clean instead of dirtying
		// 16 bytes per port per round (an unconditional clear measurably
		// regresses the long-tail benchmarks).
		for k := range recv {
			if recv[k] != nil {
				recv[k] = nil
			}
		}
		sent := int64(0)
		if len(send) != 0 {
			rev := g.ReverseEdges(u)
			for k, msg := range send {
				if msg != nil {
					next[rev[k]] = msg
					sent++
				}
			}
		}
		if done {
			if atomicHalt {
				halted.AddAtomic(u)
			} else {
				halted.Add(u)
			}
			haltRounds[u] = r
			outputs[u] = states[u].Output()
		}
		return sent
	}
	// stepWords walks the frontier's set bits over a word range — the
	// lockstep hot loop: one TZCNT per live node, 64 absent nodes skipped
	// per zero-word probe.
	stepWords := func(w, r int, loW, hiW int32) {
		t := &tallies[w]
		sent := int64(0)
		for wi := loW; wi < hiW; wi++ {
			for bw := activeWords[wi]; bw != 0; bw &= bw - 1 {
				sent += stepNode(t, r, int(wi)<<6+bits.TrailingZeros64(bw))
				if t.err != nil {
					t.msgs += sent
					return
				}
			}
		}
		t.msgs += sent
	}
	// stepList steps an explicit node list — the permuted scheduler's
	// shuffled ranks, where nodes of one word may land on different workers
	// (hence the atomic halt recording).
	stepList := func(w, r int, items []int32) {
		t := &tallies[w]
		sent := int64(0)
		for _, un := range items {
			sent += stepNode(t, r, int(un))
			if t.err != nil {
				break
			}
		}
		t.msgs += sent
	}

	// Persistent pool: workers-1 goroutines live for the whole run, each fed
	// by its own buffered channel; the coordinator steps the first partition
	// itself. The channel hand-off and wg.Wait form the round barrier.
	var wg sync.WaitGroup
	var pool []chan job
	if workers > 1 {
		pool = make([]chan job, workers-1)
		for i := range pool {
			ch := make(chan job, 1)
			pool[i] = ch
			go func(w int) {
				for j := range ch {
					if j.items != nil {
						stepList(w, j.r, j.items)
					} else {
						stepWords(w, j.r, j.loW, j.hiW)
					}
					wg.Done()
				}
			}(i + 1)
		}
		defer func() {
			for _, ch := range pool {
				close(ch)
			}
		}()
	}

	var permRng *rand.Rand
	if opts.Permute != nil {
		permRng = rand.New(rand.NewPCG(DeriveSeeds(opts.Seed^opts.Permute.Seed, -2, permuteStream)))
	}

	ctx := opts.Context
	live := n
	// steps and msgs are the running totals of node-rounds and messages.
	var steps, msgs int64
	for r := 0; r < maxRounds && live > 0; r++ {
		// One cancellation check per round: server timeouts and client
		// disconnects stop a long simulation at the next round boundary
		// instead of running it to completion. Checking between rounds keeps
		// every completed run byte-identical to an uncancelled one.
		if ctx != nil {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %w: algorithm %q stopped after %d rounds with %d of %d nodes still running",
					ErrCanceled, ctx.Err(), a.Name(), r, live, n)
			default:
			}
		}
		nw := workers
		if nw > live {
			nw = live
		}
		if permRng != nil {
			// Rank-based adversarial permutation: materialize the frontier's
			// members in ascending order and shuffle the rank list.
			ranks := active.AppendSet(st.permScratch(n))
			st.perm = ranks
			permRng.Shuffle(len(ranks), func(i, j int) {
				ranks[i], ranks[j] = ranks[j], ranks[i]
			})
			if nw <= 1 {
				stepList(0, r, ranks)
			} else {
				chunk := (live + nw - 1) / nw
				for w := 1; w*chunk < live; w++ {
					lo := w * chunk
					hi := min(lo+chunk, live)
					wg.Add(1)
					pool[w-1] <- job{r: r, items: ranks[lo:hi]}
				}
				stepList(0, r, ranks[:chunk])
				wg.Wait()
			}
		} else if nw <= 1 {
			stepWords(0, r, 0, numWords)
		} else {
			// Popcount-balanced partition: cut the word array into at most
			// nw contiguous ranges carrying ~live/nw frontier members each.
			// Word granularity means no two workers ever touch the same
			// halted word, and each worker's lane traffic stays contiguous.
			target := (live + nw - 1) / nw
			cuts := st.cuts[:0]
			acc, goal := 0, target
			for wi := int32(0); wi < numWords && len(cuts) < nw-1; wi++ {
				acc += bits.OnesCount64(activeWords[wi])
				if acc >= goal {
					cuts = append(cuts, wi+1)
					goal += target
				}
			}
			st.cuts = cuts
			lo := int32(0)
			for i, hi := range cuts {
				if i > 0 {
					wg.Add(1)
					pool[i-1] <- job{r: r, loW: lo, hiW: hi}
				}
				lo = hi
			}
			if len(cuts) > 0 {
				wg.Add(1)
				pool[len(cuts)-1] <- job{r: r, loW: lo, hiW: numWords}
				stepWords(0, r, 0, cuts[0])
			} else {
				stepWords(0, r, 0, numWords)
			}
			wg.Wait()
		}
		total := int64(0)
		for w := range tallies {
			if err := tallies[w].err; err != nil {
				return nil, err
			}
			total += tallies[w].msgs
		}
		inbox, next = next, inbox
		steps += int64(live)
		// Fold this round's halts into the frontier: one word-wise and-not +
		// popcount pass replaces the per-node compaction loop.
		live = active.AndNotCount(halted)
		// Silent stretch: after a round that sent nothing, every inbox is
		// empty, so if every live node promises to idle until some later
		// round, the rounds in between are skipped and only accounted.
		if total == msgs && live > 0 {
			if w := min(wakeRound(states, activeWords, r), maxRounds); w > r+1 {
				steps += int64(live) * int64(w-r-1)
				r = w - 1
			}
		}
		msgs = total
	}
	if live > 0 {
		return nil, fmt.Errorf("%w: algorithm %q, %d of %d nodes still running after %d rounds",
			ErrMaxRounds, a.Name(), live, n, maxRounds)
	}
	res := &Result{
		Outputs:    outputs,
		HaltRounds: haltRounds,
		Messages:   msgs,
		Steps:      steps,
	}
	for u := 0; u < n; u++ {
		if haltRounds[u]+1 > res.Rounds {
			res.Rounds = haltRounds[u] + 1
		}
	}
	return res, nil
}

// wakeRound returns the earliest round after r at which a live node must be
// stepped, given that no message is delivered until then (see Sleeper). The
// scan stops at r+1 as soon as one node is not a Sleeper or cannot sleep.
func wakeRound(states []Node, words []uint64, r int) int {
	wake := math.MaxInt
	for wi, bw := range words {
		for ; bw != 0; bw &= bw - 1 {
			s, ok := states[wi<<6+bits.TrailingZeros64(bw)].(Sleeper)
			if !ok {
				return r + 1
			}
			w := s.Wake(r)
			if w <= r+1 {
				return r + 1
			}
			wake = min(wake, w)
		}
	}
	return wake
}
