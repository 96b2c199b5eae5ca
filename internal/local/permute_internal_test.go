package local

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
)

// logNode appends its node index to the shared per-round step log and
// halts at round halt, so the live set shrinks round by round.
type logNode struct {
	u, halt int
	log     *stepLog
}

type stepLog struct {
	mu     sync.Mutex
	rounds [][]int32
}

func (n *logNode) Round(r int, _ []Message) ([]Message, bool) {
	n.log.mu.Lock()
	for len(n.log.rounds) <= r {
		n.log.rounds = append(n.log.rounds, nil)
	}
	n.log.rounds[r] = append(n.log.rounds[r], int32(n.u))
	n.log.mu.Unlock()
	return nil, r == n.halt
}

func (n *logNode) Output() any { return nil }

// TestPermuteOrderIndependentOfWorkers pins the permuted scheduler's step
// order: the run steps its shuffled rank list on one worker whatever
// Options.Workers says, so the order is the ascending live set shuffled by
// the permutation's PCG stream, one shuffle per round.
func TestPermuteOrderIndependentOfWorkers(t *testing.T) {
	const n = 4096
	g, err := graph.GNP(n, 8.0/float64(n-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[int64]int, n)
	for u := 0; u < n; u++ {
		index[g.ID(u)] = u
	}
	run := func(workers int) [][]int32 {
		log := &stepLog{}
		a := AlgorithmFunc{AlgoName: "steplog", NewNode: func(info Info) Node {
			u := index[info.ID]
			return &logNode{u: u, halt: u % 3, log: log}
		}}
		if _, err := Run(g, a, Options{Seed: 1, Workers: workers, Permute: &Permute{Seed: 3}}); err != nil {
			t.Fatal(err)
		}
		return log.rounds
	}

	rng := rand.New(rand.NewPCG(DeriveSeeds(1^3, -2, permuteStream)))
	var want [][]int32
	for r := 0; r < 3; r++ {
		var ranks []int32
		for u := 0; u < n; u++ {
			if u%3 >= r {
				ranks = append(ranks, int32(u))
			}
		}
		rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
		want = append(want, ranks)
	}

	one, four := run(1), run(4)
	if !slices.EqualFunc(one, want, slices.Equal) {
		t.Error("permuted order at Workers: 1 is not the PCG-shuffled ascending live set")
	}
	if !slices.EqualFunc(four, one, slices.Equal) {
		t.Error("permuted order at Workers: 4 differs from Workers: 1")
	}
}
