package local_test

// runLegacy is the pre-refactor simulation engine, frozen verbatim (modulo
// being moved outside the package) as a comparison baseline for the
// BenchmarkEngine* microbenchmarks and as a differential-testing oracle: it
// spawns a fresh set of goroutines every round, keeps per-node [][]Message
// inbox/next pairs, and rescans all n nodes twice per round regardless of
// how many are still live.

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

func runLegacy(g *graph.Graph, a local.Algorithm, opts local.Options) (*local.Result, error) {
	n := g.N()
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = local.DefaultMaxRounds
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Sequential || workers > n {
		workers = 1
	}

	states := make([]local.Node, n)
	inbox := make([][]local.Message, n)
	next := make([][]local.Message, n)
	halted := make([]bool, n)
	haltRounds := make([]int, n)
	msgs := make([]int64, n)
	outputs := make([]any, n)
	for u := 0; u < n; u++ {
		deg := g.Degree(u)
		info := local.Info{
			ID:        g.ID(u),
			Degree:    deg,
			Neighbors: g.NeighborIDs(make([]int64, 0, deg), u),
			Rand:      local.DeriveRand(opts.Seed, g.ID(u), 0),
		}
		states[u] = a.New(info)
		inbox[u] = make([]local.Message, deg)
		next[u] = make([]local.Message, deg)
	}

	live := n
	var steps int64
	runErrs := make([]error, workers)
	var wg sync.WaitGroup
	for r := 0; r < maxRounds && live > 0; r++ {
		steps += int64(live)
		step := func(w, lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				if halted[u] {
					continue
				}
				send, done := states[u].Round(r, inbox[u])
				if len(send) != 0 && len(send) != g.Degree(u) {
					runErrs[w] = fmt.Errorf("local: %s: node %d sent %d messages with degree %d",
						a.Name(), u, len(send), g.Degree(u))
					return
				}
				for k := range inbox[u] {
					inbox[u][k] = nil
				}
				for k, msg := range send {
					if msg != nil {
						v := int(g.Neighbors(u)[k])
						next[v][g.BackPort(u, k)] = msg
						msgs[u]++
					}
				}
				if done {
					halted[u] = true
					haltRounds[u] = r
					outputs[u] = states[u].Output()
				}
			}
		}
		if workers == 1 {
			wg.Add(1)
			step(0, 0, n)
		} else {
			chunk := (n + workers - 1) / workers
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := min(lo+chunk, n)
				if lo >= hi {
					wg.Done()
					continue
				}
				go step(w, lo, hi)
			}
		}
		wg.Wait()
		for _, err := range runErrs {
			if err != nil {
				return nil, err
			}
		}
		inbox, next = next, inbox
		live = 0
		for u := 0; u < n; u++ {
			if !halted[u] {
				live++
			}
		}
	}
	if live > 0 {
		return nil, fmt.Errorf("%w: algorithm %q, %d of %d nodes still running after %d rounds",
			local.ErrMaxRounds, a.Name(), live, n, maxRounds)
	}
	res := &local.Result{
		Outputs:    outputs,
		HaltRounds: haltRounds,
		Rounds:     0,
		Steps:      steps,
	}
	for u := 0; u < n; u++ {
		if haltRounds[u]+1 > res.Rounds {
			res.Rounds = haltRounds[u] + 1
		}
		res.Messages += msgs[u]
	}
	if n == 0 {
		res.Rounds = 0
	}
	return res, nil
}
