// Command scenarioctl validates and inspects declarative scenario corpora
// (see internal/scenario and the committed scenarios/ directory) without
// running any simulation.
//
// Usage:
//
//	scenarioctl -validate dir [-jobs]
//	scenarioctl -algos
//	scenarioctl -families
//
// -validate parses every *.json spec in the directory, checks it against the
// family table and the algorithm registry (including cross-file name
// uniqueness), and dry-expands the corpus — building every graph and
// algorithm exactly as a run would, so a spec that would fail mid-run fails
// here instead. All problems are reported, not just the first; any problem
// exits non-zero. CI's scenario gate runs this before executing the corpus.
//
// -algos and -families print the registry and the family table, the two
// name spaces scenario files draw from.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/unilocal/unilocal/internal/cliutil"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
)

var (
	flagValidate = flag.String("validate", "", "validate all scenario files in this directory")
	flagJobs     = flag.Bool("jobs", false, "with -validate: also print the expanded job list")
	flagAlgos    = flag.Bool("algos", false, "list the algorithm registry")
	flagFamilies = flag.Bool("families", false, "list the graph family table")
)

func main() {
	flag.Parse()
	switch {
	case *flagAlgos:
		for _, e := range scenario.Algorithms() {
			tags := ""
			if e.PerGraph {
				tags += " [baseline]"
			}
			switch e.Row.Arg {
			case engines.ArgLambda:
				tags += " [lambda]"
			case engines.ArgBeta:
				tags += " [beta]"
			}
			if e.Row.PacksIDs {
				tags += " [packs-ids]"
			}
			fmt.Printf("%-28s%s — %s\n", e.Name, tags, e.Doc)
		}
	case *flagFamilies:
		fmt.Print(scenario.FamilyTable())
	case *flagValidate != "":
		if !validate(*flagValidate, os.Stdout, os.Stderr) {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// validate reports every problem in the corpus and returns overall success.
func validate(dir string, stdout, stderr io.Writer) bool {
	if err := cliutil.Dir("-validate", dir); err != nil {
		fmt.Fprintln(stderr, "scenarioctl:", err)
		return false
	}
	results, err := scenario.LintDir(dir)
	if err != nil {
		fmt.Fprintln(stderr, "scenarioctl:", err)
		return false
	}
	ok := true
	var specs []*scenario.Spec
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(stderr, "scenarioctl: %v\n", r.Err)
			ok = false
			continue
		}
		specs = append(specs, r.Spec)
		fmt.Fprintf(stdout, "%s: ok (%s) knowledge=%s scheduler=%s\n",
			r.Path, r.Spec.Name, r.Spec.Knowledge, r.Spec.Scheduler)
	}
	if !ok {
		return false
	}
	// Dry expansion: builds every graph, identity perturbation and algorithm
	// through one shared corpus, exactly as a run would.
	corpus := graph.NewCorpus()
	batch, err := scenario.Expand(specs, scenario.ExpandOptions{Corpus: corpus})
	if err != nil {
		fmt.Fprintln(stderr, "scenarioctl:", err)
		return false
	}
	if *flagJobs {
		for i, j := range batch.Jobs {
			fmt.Fprintf(stdout, "job %3d: %s (n=%d)\n", i, j.Label, j.Graph.N())
		}
	}
	hits, misses := corpus.Stats()
	fmt.Fprintf(stdout, "validated %d files, %d scenarios, %d jobs (corpus: %d graphs built, %d reused; algorithms: %d built, %d shared)\n",
		len(results), len(specs), len(batch.Jobs), misses, hits, batch.AlgoBuilds, batch.AlgoShares)
	return true
}
