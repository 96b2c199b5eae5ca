// Command localtrace renders the Figure 1 view of the paper: the cascade
// of an alternating algorithm. It runs a uniform transformed algorithm,
// groups node terminations by round (each distinct termination round is the
// announce round of one pruning phase), and prints how the surviving
// configuration (G_i, x_i) shrinks from iteration to iteration.
//
// Usage:
//
//	localtrace [-algo NAME] [-n N] [-deg D] [-seed S] [-max-rounds R]
//
// NAME is an entry of the scenario registry (`scenarioctl -algos` lists
// them), e.g. lasvegas-mis, uniform-mis-delta or uniform-matching. A
// non-uniform baseline runs with the exact parameters of the instance;
// entries that need a λ or β parameter cannot be traced.
//
// With -max-rounds, the algorithm is truncated at R rounds in the paper's
// "restricted to i rounds" sense (every live node is forced to terminate
// with its tentative output); nodes that did not genuinely halt by then are
// counted explicitly as a never-halted row in the cascade table instead of
// being silently folded into the surviving column.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/unilocal/unilocal/internal/cliutil"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/scenario"
)

var (
	flagAlgo      = flag.String("algo", "lasvegas-mis", "registry algorithm to trace (scenarioctl -algos lists them)")
	flagN         = flag.Int("n", 2048, "number of nodes (>= 1)")
	flagDeg       = flag.Float64("deg", 8, "average degree of the G(n,p) instance (0 <= deg <= n-1)")
	flagSeed      = flag.Int64("seed", 1, "simulation seed")
	flagMaxRounds = flag.Int("max-rounds", 0, "truncate the run at this many rounds (0 = run to termination)")
)

func main() {
	flag.Parse()
	cfg := traceConfig{
		Algo:      *flagAlgo,
		N:         *flagN,
		Deg:       *flagDeg,
		Seed:      *flagSeed,
		MaxRounds: *flagMaxRounds,
	}
	if err := trace(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "localtrace:", err)
		os.Exit(1)
	}
}

// traceConfig carries the parsed flags, so tests can drive trace directly.
type traceConfig struct {
	Algo      string
	N         int
	Deg       float64
	Seed      int64
	MaxRounds int
}

// validate rejects parameter combinations before they can turn into a
// nonsensical G(n,p): n = 1 with a positive degree used to divide by zero
// and ask GNP for p = +Inf. The checks live in internal/cliutil, shared
// with the other commands that take n/degree/bound flags.
func (c traceConfig) validate() error {
	if err := cliutil.Nodes("-n", c.N); err != nil {
		return err
	}
	if err := cliutil.AvgDegree("-deg", c.N, c.Deg); err != nil {
		return err
	}
	return cliutil.NonNegative("-max-rounds", c.MaxRounds)
}

// p is the G(n,p) edge probability realizing the requested average degree.
func (c traceConfig) p() float64 {
	return cliutil.GNPProb(c.N, c.Deg) // validate guarantees Deg == 0 when N <= 1
}

func trace(cfg traceConfig, w io.Writer) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	as := scenario.AlgoSpec{Name: cfg.Algo}
	if err := as.Validate(); err != nil {
		return err
	}
	entry, _ := scenario.LookupAlgorithm(as.Name)
	g, err := graph.GNP(cfg.N, cfg.p(), cfg.Seed)
	if err != nil {
		return err
	}
	// A baseline reads the exact parameters, as Expand's exact regime
	// advertises them; a uniform algorithm ignores them.
	algo, err := entry.Build(engines.GraphParams(g), as)
	if err != nil {
		return err
	}
	// -max-rounds is the paper's "A restricted to i rounds", with forced
	// halts marked so they can be counted apart from genuine terminations.
	run := algo
	if cfg.MaxRounds > 0 {
		run = local.RestrictRoundsMarked(algo, cfg.MaxRounds)
	}
	res, err := local.Run(g, run, local.Options{Seed: cfg.Seed})
	if err != nil {
		return fmt.Errorf("running %s on G(n=%d, p=%.4g): %w", algo.Name(), cfg.N, cfg.p(), err)
	}

	// Group genuine terminations by round: each group is one pruning phase
	// W_s of the alternating schedule (Figure 1 of the paper). Nodes the
	// -max-rounds truncation force-halted never genuinely terminated; they
	// are counted apart, not smuggled into a pruning phase.
	byRound := map[int]int{}
	neverHalted := 0
	for u, h := range res.HaltRounds {
		if _, forced := res.Outputs[u].(local.Truncated); forced {
			neverHalted++
			continue
		}
		byRound[h]++
	}
	rounds := make([]int, 0, len(byRound))
	for r := range byRound {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)

	fmt.Fprintf(w, "alternating cascade of %s on G(n=%d, avg deg %.1f), seed %d\n",
		algo.Name(), cfg.N, cfg.Deg, cfg.Seed)
	fmt.Fprintf(w, "total running time: %d rounds, %d messages\n\n", res.Rounds, res.Messages)
	fmt.Fprintln(w, "iteration | announce round | pruned |V(G_i)| remaining | cascade")
	surviving := g.N()
	for i, r := range rounds {
		pruned := byRound[r]
		surviving -= pruned
		bar := strings.Repeat("#", scale(surviving+pruned, g.N(), 60))
		fmt.Fprintf(w, "%9d | %14d | %6d | %9d | %s\n", i+1, r, pruned, surviving, bar)
	}
	if neverHalted > 0 {
		fmt.Fprintf(w, "%9s | %14s | %6s | %9d | never halted within %d rounds\n",
			"—", "—", "—", neverHalted, cfg.MaxRounds)
	}
	return nil
}

// scale maps v in [0,max] to a bar width in [0,width].
func scale(v, max, width int) int {
	if max == 0 {
		return 0
	}
	return v * width / max
}
