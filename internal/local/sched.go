package local

import "github.com/unilocal/unilocal/internal/mathutil"

// This file implements the deterministic adversarial schedulers of the
// knowledge-regime axis: seeded staggered wake-ups (on top of the paper's
// non-simultaneous wake-up machinery in compose.go) and the engine's seeded
// per-round delivery permutation (Options.Permute). Both are pure functions
// of their seeds, so scheduled runs keep the engine's determinism contract:
// byte-identical Results at any worker count, reproducible from the seed.

// StaggeredWakeup returns algorithm a under a seeded adversarial wake-up
// schedule: the node with identity id sleeps hash(seed, id) mod (maxDelay+1)
// rounds before starting a, via the α-synchronizer wake-up wrapper. The
// delays are a pure function of (seed, id) — independent of worker count and
// reproducible across processes. A maxDelay <= 0 returns a unchanged.
func StaggeredWakeup(a Algorithm, seed int64, maxDelay int) Algorithm {
	if maxDelay <= 0 {
		return a
	}
	return WithWakeup(a, func(id int64) int {
		h := mathutil.SplitMix64(uint64(seed) ^ mathutil.SplitMix64(uint64(id)))
		return int(h % uint64(maxDelay+1))
	})
}

// Permute selects the engine's adversarial per-round delivery permutation
// (see Options.Permute). The permutation is applied to set-bit ranks of the
// frontier bitset: each round the live set is materialized in ascending node
// order (rank k = the frontier's k-th member) and that rank list is shuffled,
// so the scheduler composes with the word-level frontier representation
// without ever mutating it. One worker steps the shuffled list, so the order
// is a function of the seeds alone, whatever Options.Workers says.
// Output-invariance holds regardless: a round's sends land in the next
// round's lane, so the order nodes step within a round cannot change any
// Result byte (the differential tests pin this against the frozen legacy
// lockstep oracle). The zero Seed is a valid schedule of its own.
type Permute struct {
	// Seed drives the permutation sequence; it is mixed with the run seed,
	// so the schedule is reproducible from (run seed, permute seed) alone.
	Seed int64
}

// permuteStream separates the permutation RNG from every node RNG stream.
const permuteStream = uint64(0x5eed_5c4e_d01e_7a11)
