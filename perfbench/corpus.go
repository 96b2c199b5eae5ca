package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
)

// fabricTimeout is localsweepd's base per-attempt timeout in the corpus
// pass.
const fabricTimeout = "60s"

// corpusBenchPasses is how many times localbench regenerates the documents
// of both spec directories. Each pass is a fresh process, so no pass warms
// another, and the per-simulation latencies and throughput pool over
// passes. The fabric pass runs once: its replicas cache shard responses, so
// a second sweep over them would skip most of the work.
const corpusBenchPasses = 2

// benchPass is one localbench regeneration of both directories.
type benchPass struct {
	scen, know *toolRun
	docs       []docSummary
}

func (p benchPass) wall() time.Duration { return p.scen.wall + p.know.wall }

// docSummary is what the benchmark reads from a localbench -json document.
type docSummary struct {
	Sweep struct {
		Jobs    int   `json:"jobs"`
		Workers int   `json:"workers"`
		WallNs  int64 `json:"wall_ns"`
	} `json:"sweep"`
	Results []struct {
		WallNs int64 `json:"wall_ns"`
	} `json:"results"`
}

// fabricSummary is localsweepd's end-of-sweep supervision line.
type fabricSummary struct {
	tasks, attempts, retries, fallbacks int
}

var fabricLine = regexp.MustCompile(`(\d+) shard tasks over \d+ replicas: (\d+) attempts, (\d+) retries, \d+ hedges, (\d+) fallbacks`)

func parseFabric(stderr string) (fabricSummary, error) {
	m := fabricLine.FindStringSubmatch(stderr)
	if m == nil {
		return fabricSummary{}, fmt.Errorf("no supervision summary in localsweepd output:\n%s", stderr)
	}
	n := make([]int, 4)
	for i := range n {
		n[i], _ = strconv.Atoi(m[i+1])
	}
	return fabricSummary{tasks: n[0], attempts: n[1], retries: n[2], fallbacks: n[3]}, nil
}

// runCorpus is the closed-loop batch workload: regenerate the documents of
// the scenario and knowledge spec copies with localbench corpusBenchPasses
// times, then sweep the scenario copies once through localsweepd over one
// localserved -parallel 1 replica per benchmark CPU.
func runCorpus(b *bench) error {
	scen := filepath.Join(b.specs, "scenarios")
	know := filepath.Join(b.specs, "knowledge")
	parallel := strconv.Itoa(b.conns)
	seed := strconv.FormatInt(b.seed, 10)

	start := func() ([]*proc, error) {
		ps := make([]*proc, b.conns)
		for i := range ps {
			var err error
			if ps[i], err = b.spawnServer("-parallel", "1"); err != nil {
				return nil, err
			}
		}
		for _, p := range ps {
			if err := b.ready(p); err != nil {
				return nil, err
			}
		}
		return ps, nil
	}
	replicas, before, err := b.launch(setupBefore, start)
	if err != nil {
		return err
	}
	endpoints := replicas[0].url
	for _, p := range replicas[1:] {
		endpoints += "," + p.url
	}

	var passes []benchPass
	for i := 0; i < corpusBenchPasses; i++ {
		var p benchPass
		for _, d := range []struct {
			dir string
			out **toolRun
		}{{scen, &p.scen}, {know, &p.know}} {
			doc := filepath.Join(b.work, fmt.Sprintf("doc-%d-%s.json", i, filepath.Base(d.dir)))
			r, err := b.runTool("localbench", "-scenarios", d.dir, "-parallel", parallel, "-seed", seed, "-json", doc)
			b.rep.op(err)
			if err != nil {
				return err
			}
			*d.out = r
			var s docSummary
			data, err := os.ReadFile(doc)
			if err == nil {
				err = json.Unmarshal(data, &s)
			}
			if err != nil {
				return fmt.Errorf("reading localbench document: %w", err)
			}
			p.docs = append(p.docs, s)
		}
		if i > 0 && (!bytes.Equal(p.scen.stdout, passes[0].scen.stdout) || !bytes.Equal(p.know.stdout, passes[0].know.stdout)) {
			b.rep.mismatch("localbench pass %d printed other documents than pass 0", i)
		}
		passes = append(passes, p)
	}
	// The default attempt timeout (10 s plus a work-scaled share) is
	// shorter than a matching shard takes while both replicas contend for
	// two CPUs, and one expiry re-runs the shard: the makespan would then
	// measure the retry policy, not the fabric.
	fabric, err := b.runTool("localsweepd", "-scenarios", scen, "-endpoints", endpoints, "-seed", seed,
		"-timeout", fabricTimeout, "-quiet", "-status")
	if err != nil {
		b.rep.op(err)
		return err
	}
	fs, err := parseFabric(fabric.stderr)
	if err != nil {
		return err
	}
	// Every shard attempt is an operation; a retried or fallen-back shard is
	// one whose attempt failed.
	b.rep.attempted += int64(fs.attempts)
	b.rep.failed += int64(fs.retries + fs.fallbacks)
	b.rep.retried += int64(fs.retries + fs.fallbacks)
	if !bytes.Equal(fabric.stdout, passes[0].scen.stdout) {
		b.rep.mismatch("localsweepd document differs from localbench's for the scenario specs")
	}
	var replicaRSS int64
	for _, r := range replicas {
		if err := r.stop(); err != nil {
			return err
		}
		replicaRSS += r.maxRSS
	}

	if !b.trace {
		setup, err := b.setupAfter(before, start)
		if err != nil {
			return err
		}
		var jobWalls, passWalls []float64
		var benchWall time.Duration
		peak := fabric.maxRSS + replicaRSS
		jobs := 0
		for _, p := range passes {
			passWalls = append(passWalls, p.wall().Seconds())
			benchWall += p.wall()
			peak = max(peak, p.scen.maxRSS, p.know.maxRSS)
			for _, d := range p.docs {
				jobs += d.Sweep.Jobs
				for _, res := range d.Results {
					jobWalls = append(jobWalls, float64(res.WallNs)/1e6)
				}
			}
		}
		r := b.rep
		r.set("setup_s", "s", setup)
		r.set("wall_s", "s", median(passWalls)+fabric.wall.Seconds())
		r.set("p50_ms", "ms", quantile(jobWalls, 0.5))
		r.set("p85_ms", "ms", quantile(jobWalls, tailQuantile))
		r.set("capacity_rps", "1/s", float64(jobs)/benchWall.Seconds())
		r.set("max_rss_mb", "MB", float64(peak)/1024)
		return nil
	}
	return b.traceCorpus(passes[0], fabric, fs)
}

// traceCorpus reports the corpus counters of the binaries' first localbench
// pass and the fabric pass, then replays the localbench pass in-process with
// spans on and off.
func (b *bench) traceCorpus(p benchPass, fabric *toolRun, fs fabricSummary) error {
	r := b.rep
	var busyNs, capNs float64
	jobs := 0
	for _, d := range p.docs {
		for _, res := range d.Results {
			busyNs += float64(res.WallNs)
		}
		capNs += float64(d.Sweep.Workers) * float64(d.Sweep.WallNs)
		jobs += d.Sweep.Jobs
	}
	r.set("sweep.busy_frac", "ratio", busyNs/capNs)
	r.set("sweep.jobs_per_s", "1/s", float64(jobs)/p.wall().Seconds())
	r.set("fabric.attempts_per_task", "ratio", float64(fs.attempts)/float64(fs.tasks))
	r.set("fabric.retries", "count", float64(fs.retries))
	r.set("fabric.fallbacks", "count", float64(fs.fallbacks))
	r.set("fabric.wall_s", "s", fabric.wall.Seconds())
	r.set("fabric.overhead_s", "s", (fabric.wall - p.scen.wall).Seconds())

	dirs := []string{filepath.Join(b.specs, "scenarios"), filepath.Join(b.specs, "knowledge")}
	want := [][]byte{p.scen.stdout, p.know.stdout}
	files := make([][][]byte, len(dirs))
	for i, dir := range dirs {
		paths, err := scenario.Files(dir)
		if err != nil {
			return err
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[i] = append(files[i], data)
		}
	}
	replay := func(tr *tracer) (*replayer, time.Duration, error) {
		rp := newReplayer(tr)
		var err error
		t0 := time.Now()
		tr.do("replay", func() {
			var hits, misses uint64
			for i := range dirs {
				var specs []*scenario.Spec
				for _, data := range files[i] {
					var s *scenario.Spec
					if s, err = rp.parse(data); err != nil {
						return
					}
					specs = append(specs, s)
				}
				c := graph.NewCorpus()
				var out []byte
				if o, e := rp.execute(specs, c, b.seed-1); e != nil {
					err = e
					return
				} else {
					out = o.Markdown
				}
				if !bytes.Equal(out, want[i]) {
					b.rep.mismatch("in-process replay of %s differs from localbench's document", dirs[i])
				}
				h, m := c.Stats()
				hits += h
				misses += m
			}
			if tr.on {
				r.set("graph.corpus_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
			}
		})
		return rp, time.Since(t0), err
	}
	return b.traceReplay(replay)
}
