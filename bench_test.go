package unilocal

// The paper's experiments (DESIGN.md §3) run as BenchmarkPaper, one
// sub-benchmark per spec of scenarios/paper. The reported custom metrics
// are the LOCAL-model quantities the paper reasons about: "rounds" (the
// running time of the algorithm on that instance) and, where relevant,
// "ratio" (uniform rounds / non-uniform rounds with correct guesses — the
// paper's headline "same asymptotic running time" claim corresponds to
// this ratio staying bounded as n grows). Wall-clock ns/op only measures
// the simulator. The experiments without a spec yet (E11, E12, E14), an
// ablation and the simulator throughput benchmarks follow it.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/algorithms/seqmis"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/sweep"
)

// benchCorpus caches every benchmark topology across the whole binary run:
// the same (family, params, seed) graph backs every benchmark that asks for
// it, exactly as cmd/localbench shares its corpus across experiments.
var benchCorpus = graph.NewCorpus()

// run executes one simulation through the sweep scheduler (inline, one job)
// and fails the benchmark on error.
func run(b *testing.B, g *graph.Graph, a local.Algorithm, seed int64) *local.Result {
	b.Helper()
	results, _ := sweep.Run([]sweep.Job{{
		Graph: g,
		Algo:  func() local.Algorithm { return a },
		Seed:  seed,
	}}, sweep.Options{Parallel: 1})
	if results[0].Err != nil {
		b.Fatal(results[0].Err)
	}
	return results[0].Res
}

// benchGraph fetches gs's graph from benchCorpus; benchCycle, benchRegular
// and benchGNP name the standard sweep families.
func benchGraph(b *testing.B, gs scenario.GraphSpec) *graph.Graph {
	g, err := gs.Build(benchCorpus)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchCycle(b *testing.B, n int) *graph.Graph {
	return benchGraph(b, scenario.GraphSpec{Family: "cycle", N: n})
}

func benchRegular(b *testing.B, n, d int) *graph.Graph {
	return benchGraph(b, scenario.GraphSpec{Family: "regular", N: n, D: d, Seed: int64(n + d)})
}

func benchGNP(b *testing.B, n int, avgDeg float64) *graph.Graph {
	return benchGraph(b, scenario.GraphSpec{Family: "gnp", N: n, P: avgDeg / float64(n-1), Seed: int64(n)})
}

// BenchmarkPaper runs every experiment spec of scenarios/paper, one
// sub-benchmark per spec: each iteration runs the spec's jobs as one
// scheduler batch, and every output must pass its registry checker. It
// reports the mean rounds of each role and, for specs with a baseline, the
// mean uniform/baseline ratio.
func BenchmarkPaper(b *testing.B) {
	specs, err := scenario.LoadDir(filepath.Join("scenarios", "paper"))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range specs {
		b.Run(s.Name, func(b *testing.B) {
			batch, err := scenario.Expand([]*scenario.Spec{s}, scenario.ExpandOptions{Corpus: benchCorpus})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var results sweep.Results
			for i := 0; i < b.N; i++ {
				results, _ = sweep.Run(batch.Jobs, sweep.Options{Parallel: 1})
				if err := results.FirstErr(); err != nil {
					b.Fatal(err)
				}
			}
			rounds, runs := map[string]int{}, map[string]int{}
			ratio, ratios := 0.0, 0
			for ji, r := range results {
				if err := batch.Check(ji, r.Res.Outputs); err != nil {
					b.Fatalf("%s: %v", batch.Jobs[ji].Label, err)
				}
				m := batch.Metas[ji]
				rounds[m.Role] += r.Res.Rounds
				runs[m.Role]++
				if m.RatioOf >= 0 {
					ratio += float64(r.Res.Rounds) / float64(results[m.RatioOf].Res.Rounds)
					ratios++
				}
			}
			for role, total := range rounds {
				b.ReportMetric(float64(total)/float64(runs[role]), "rounds/"+role)
			}
			if ratios > 0 {
				b.ReportMetric(ratio/float64(ratios), "ratio")
			}
		})
	}
}

// uniformOf builds row r's uniform algorithm.
func uniformOf(b *testing.B, r engines.Row) local.Algorithm {
	a, err := r.New(0)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkFigure1_AlternatingCascade reproduces Figure 1 (E11): the
// alternating algorithm's per-iteration shrinkage of the surviving graph.
// It runs mis-delta, the uniform deterministic MIS of Theorem 1: on
// gnp(2048, 8) its nodes halt over several iterations, so the first
// pruning phase leaves survivors. (lasvegas-mis and uniform-mis-id halt
// every node in one round on this graph and show no cascade.)
func BenchmarkFigure1_AlternatingCascade(b *testing.B) {
	g := benchGNP(b, 2048, 8)
	alt := uniformOf(b, engines.RowMISDelta)
	var res *local.Result
	for i := 0; i < b.N; i++ {
		res = run(b, g, alt, int64(i))
	}
	if err := engines.RowMISDelta.CheckUniform(g, 0, res.Outputs); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Rounds), "rounds")
	// The cascade itself (survivors per iteration) is printed by
	// cmd/localtrace; here we report how many nodes survived past the first
	// pruning phase as a cascade proxy.
	first := res.Rounds
	for _, h := range res.HaltRounds {
		if h < first {
			first = h
		}
	}
	late := 0
	for _, h := range res.HaltRounds {
		if h > first {
			late++
		}
	}
	if late == 0 {
		b.Fatalf("every node halted in round %d: no cascade to measure", first)
	}
	b.ReportMetric(float64(late), "survivors_after_first_prune")
}

// BenchmarkTheorem2_LasVegas reproduces the Monte-Carlo-to-Las-Vegas
// transformation (E12) on MIS.
func BenchmarkTheorem2_LasVegas(b *testing.B) {
	lv := uniformOf(b, engines.RowLasVegasMIS)
	for _, n := range []int{256, 1024, 4096} {
		g := benchGNP(b, n, 8)
		b.Run(fmt.Sprintf("gnp8/n=%d", n), func(b *testing.B) {
			total := 0
			var res *local.Result
			for i := 0; i < b.N; i++ {
				res = run(b, g, lv, int64(i))
				total += res.Rounds
			}
			if err := engines.RowLasVegasMIS.CheckUniform(g, 0, res.Outputs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds/avg")
		})
	}
}

// BenchmarkAblation_TransformerOverhead isolates the Theorem 1 overhead
// (E14): the ratio uniform/non-uniform across a size sweep must stay flat.
// Each iteration runs the baseline (correct guesses) and the uniform
// transform as one scheduler batch.
func BenchmarkAblation_TransformerOverhead(b *testing.B) {
	r := engines.RowMISDelta
	uniform := uniformOf(b, r)
	for _, n := range []int{128, 512, 2048, 8192} {
		g := benchRegular(b, n, 4)
		baseline := r.NonUniform(0).Build(engines.GraphParams(g))
		b.Run(fmt.Sprintf("regular4/n=%d", n), func(b *testing.B) {
			var nu, un *local.Result
			for i := 0; i < b.N; i++ {
				results, _ := sweep.Run([]sweep.Job{
					{Graph: g, Algo: func() local.Algorithm { return baseline }, Seed: int64(i)},
					{Graph: g, Algo: func() local.Algorithm { return uniform }, Seed: int64(i)},
				}, sweep.Options{Parallel: 1})
				if err := results.FirstErr(); err != nil {
					b.Fatal(err)
				}
				nu, un = results[0].Res, results[1].Res
			}
			if err := r.CheckUniform(g, 0, un.Outputs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(nu.Rounds), "rounds/nonuniform")
			b.ReportMetric(float64(un.Rounds), "rounds/uniform")
			b.ReportMetric(float64(un.Rounds)/float64(nu.Rounds), "ratio")
		})
	}
}

// BenchmarkAblation_SeqNumberShapes contrasts the additive (s_f = 1) and
// product (s_f = O(log)) sequence-number machineries of the Δ- and
// arboricity-rows by counting scheduled guess vectors per iteration.
func BenchmarkAblation_SeqNumberShapes(b *testing.B) {
	additive, product := engines.RowMISDelta.Seq(0), engines.RowMISArb.Seq(0)
	var addTotal, prodTotal int
	for i := 0; i < b.N; i++ {
		addTotal, prodTotal = 0, 0
		for iter := 1; iter <= 12; iter++ {
			addTotal += len(additive.Sets(1 << uint(iter)))
			prodTotal += len(product.Sets(1 << uint(iter)))
		}
	}
	b.ReportMetric(float64(addTotal), "vectors/additive")
	b.ReportMetric(float64(prodTotal), "vectors/product")
}

// BenchmarkEngineThroughput measures raw simulator speed (node-rounds/s) as
// an implementation metric.
func BenchmarkEngineThroughput(b *testing.B) {
	g := benchGNP(b, 8192, 8)
	b.ResetTimer()
	var nodeRounds int64
	for i := 0; i < b.N; i++ {
		res := run(b, g, seqmis.New(), int64(i))
		for _, h := range res.HaltRounds {
			nodeRounds += int64(h + 1)
		}
	}
	b.ReportMetric(float64(nodeRounds)/b.Elapsed().Seconds(), "node-rounds/s")
}

// sweepBatch is the standard run-level throughput workload: a mixed batch of
// Luby runs across graph families, sizes and seeds — many independent whole
// simulations, the shape cmd/localbench -parallel schedules.
func sweepBatch(b *testing.B, seeds int) []sweep.Job {
	b.Helper()
	var jobs []sweep.Job
	a := luby.New()
	for _, n := range []int{512, 1024, 2048} {
		for _, g := range []*graph.Graph{
			benchGNP(b, n, 8),
			benchCycle(b, n),
			benchRegular(b, n, 4),
		} {
			for seed := int64(0); seed < int64(seeds); seed++ {
				jobs = append(jobs, sweep.Job{
					Graph: g,
					Algo:  func() local.Algorithm { return a },
					Seed:  seed,
				})
			}
		}
	}
	return jobs
}

// BenchmarkSweepThroughput measures batch scheduling of whole simulations:
// sequential (the old harness behaviour: one run at a time) versus one
// scheduler worker per core. jobs/sec is the headline run-level throughput
// metric tracked in BENCH.json; engine-allocs/job must stay near zero once
// the per-worker pooled states are warm.
func BenchmarkSweepThroughput(b *testing.B) {
	jobs := sweepBatch(b, 4)
	for _, mode := range []struct {
		name     string
		parallel int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(fmt.Sprintf("%s/jobs=%d", mode.name, len(jobs)), func(b *testing.B) {
			b.ReportAllocs()
			var stats sweep.Stats
			for i := 0; i < b.N; i++ {
				results, s := sweep.Run(jobs, sweep.Options{Parallel: mode.parallel})
				if err := results.FirstErr(); err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(stats.JobsPerSec, "jobs/s")
			b.ReportMetric(float64(stats.EngineAllocs)/float64(stats.Jobs), "engine-allocs/job")
		})
	}
}

// BenchmarkSweepWarmPool isolates the RunState pool: back-to-back same-shape
// runs must be near-zero-alloc on the engine side (node construction aside),
// the warm path every scheduler worker hits after its first job.
func BenchmarkSweepWarmPool(b *testing.B) {
	g := benchGNP(b, 4096, 8)
	a := luby.New()
	st := local.AcquireRunState(g.N(), g.NumEdges())
	defer st.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.Run(g, a, local.Options{Seed: int64(i), Sequential: true, State: st}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Allocs()), "state-allocs-total")
}
