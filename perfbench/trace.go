package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
	"github.com/unilocal/unilocal/internal/sweep"
)

// span is one recorded call into a layer's exported function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
}

// tracer records spans in memory. The benchmark's replays are sequential,
// so spans nest strictly and an open-span stack gives each its parent. A
// tracer that is off only runs the calls, which is how the tracing overhead
// is measured.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// do runs fn inside a span called name.
func (t *tracer) do(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent})
	t.open = append(t.open, i)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
}

// spanStats sums the spans of each name.
type spanStats struct {
	count int
	total time.Duration // summed durations
	self  time.Duration // summed durations minus the part child spans cover
}

func (t *tracer) stats() map[string]*spanStats {
	out := make(map[string]*spanStats)
	get := func(name string) *spanStats {
		s := out[name]
		if s == nil {
			s = &spanStats{}
			out[name] = s
		}
		return s
	}
	for _, sp := range t.spans {
		d := time.Duration(sp.End - sp.Start)
		s := get(sp.Name)
		s.count++
		s.total += d
		s.self += d
		if sp.Parent >= 0 {
			get(t.spans[sp.Parent].Name).self -= d
		}
	}
	return out
}

// layerOf names the layer a span belongs to: the prefix of its name, except
// that scenario rendering is a layer of its own.
func layerOf(name string) string {
	if name == "scenario.render" {
		return "render"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByLayer sums self time per layer.
func (t *tracer) selfByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, s := range t.stats() {
		out[layerOf(name)] += s.self
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineClass is the span an engine run is recorded under: lift for the
// matching baseline (a line-graph simulation), core for the uniform
// algorithm under test (the transformers drive nested Subruns), local for
// every other baseline.
func engineClass(m scenario.JobMeta) string {
	switch {
	case m.Algo.Name == "nonuniform-matching":
		return "lift"
	case m.Role == "uniform":
		return "core"
	}
	return "local"
}

// engineTally sums one engine class's runs.
type engineTally struct {
	runs  int
	wall  time.Duration
	steps int64
}

// runtimeSample is a reading of the runtime counters the replay diffs
// around its engine loops.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
	}
}

// replayer executes specs in-process through the exported calls
// serve.Execute makes — graph build, expansion, one engine run per job,
// output checks, rendering — sequentially and inside spans.
type replayer struct {
	tr       *tracer
	engines  map[string]*engineTally
	rounds   int64
	messages int64
	// runtime counter deltas summed over the engine loops
	allocBytes, gcCPU, busyCPU float64
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, engines: make(map[string]*engineTally)}
}

// execute builds the specs' graphs in c, expands them on the now warm
// corpus, runs every job on a sequential engine, checks its outputs and
// renders the markdown document.
func (rp *replayer) execute(specs []*scenario.Spec, c *graph.Corpus, seedOffset int64) (*serve.Outcome, error) {
	var err error
	rp.tr.do("graph.build", func() {
		for _, s := range specs {
			var base *graph.Graph
			if base, err = s.Graph.Build(c); err != nil {
				return
			}
			if _, err = s.IDs.Apply(c, base); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var batch *scenario.Batch
	rp.tr.do("scenario.expand", func() {
		batch, err = scenario.Expand(specs, scenario.ExpandOptions{Corpus: c, SeedOffset: seedOffset})
	})
	if err != nil {
		return nil, err
	}
	results := make([]sweep.Result, len(batch.Jobs))
	stats := sweep.Stats{Jobs: len(batch.Jobs), Workers: 1}
	before := readRuntime()
	t0 := time.Now()
	for ji := range batch.Jobs {
		j := &batch.Jobs[ji]
		class := engineClass(batch.Metas[ji])
		var res *local.Result
		start := time.Now()
		rp.tr.do(class+".run", func() {
			res, err = local.Run(j.Graph, j.Algo(), local.Options{
				Seed: j.Seed, MaxRounds: j.MaxRounds, Permute: j.Permute, Sequential: true,
			})
		})
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Label, err)
		}
		results[ji] = sweep.Result{Res: res, Wall: wall}
		tally := rp.engines[class]
		if tally == nil {
			tally = &engineTally{}
			rp.engines[class] = tally
		}
		tally.runs++
		tally.wall += wall
		tally.steps += res.Steps
		rp.rounds += int64(res.Rounds)
		rp.messages += res.Messages
		stats.NodeSteps += res.Steps
		rp.tr.do("problems.check", func() { err = batch.Check(ji, res.Outputs) })
		if err != nil {
			return nil, fmt.Errorf("%s: invalid output: %w", j.Label, err)
		}
	}
	stats.Wall = time.Since(t0)
	after := readRuntime()
	rp.allocBytes += after.allocBytes - before.allocBytes
	rp.gcCPU += after.gcCPU - before.gcCPU
	rp.busyCPU += (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	var md bytes.Buffer
	rp.tr.do("scenario.render", func() { err = renderTable(&md, batch, results) })
	if err != nil {
		return nil, err
	}
	return &serve.Outcome{Batch: batch, Results: results, Stats: stats, Markdown: md.Bytes()}, nil
}

// renderTable writes the batch's markdown document the way scenario.Render
// does, minus the output checks the replay already ran and timed.
func renderTable(w io.Writer, b *scenario.Batch, results []sweep.Result) error {
	t := scenario.Table{Jobs: len(b.Jobs), Sections: make([]scenario.Section, 0, len(b.Plans))}
	base := 0
	for si, p := range b.Plans {
		slots := make([]scenario.SlotOutcome, len(p.Metas))
		for k := range p.Metas {
			r := results[base+k].Res
			slots[k] = scenario.SlotOutcome{Slot: k, Rounds: r.Rounds, Messages: r.Messages}
		}
		sec, err := scenario.SectionFrom(p, scenario.InfoOf(b.Graphs[si]), slots)
		if err != nil {
			return err
		}
		t.Sections = append(t.Sections, sec)
		base += len(p.Metas)
	}
	return t.Write(w)
}

// parse parses one spec inside a scenario.parse span.
func (rp *replayer) parse(data []byte) (*scenario.Spec, error) {
	var s *scenario.Spec
	var err error
	rp.tr.do("scenario.parse", func() { s, err = scenario.Parse(data) })
	return s, err
}

// nsPerStep is an engine class's run time per node-step, or 0 when the
// replay ran none of its jobs.
func (rp *replayer) nsPerStep(class string) float64 {
	t := rp.engines[class]
	if t == nil || t.steps == 0 {
		return 0
	}
	return float64(t.wall.Nanoseconds()) / float64(t.steps)
}

// report sets the per-layer metrics every replay yields: span totals and
// self times per layer, engine cost per step by class, the deterministic
// work counters, allocation and GC share, and — from the untraced replay's
// wall time — the tracing overhead.
func (rp *replayer) report(r *report, wall, untraced time.Duration) {
	st := rp.tr.stats()
	ms := func(name string) float64 {
		if s := st[name]; s != nil {
			return float64(s.total) / float64(time.Millisecond)
		}
		return 0
	}
	meanMs := func(name string) float64 {
		if s := st[name]; s != nil && s.count > 0 {
			return float64(s.total) / float64(time.Millisecond) / float64(s.count)
		}
		return 0
	}
	r.set("graph.build_ms", "ms", ms("graph.build"))
	if s := st["scenario.parse"]; s != nil && s.count > 0 {
		r.set("scenario.parse_us", "us", float64(s.total)/float64(time.Microsecond)/float64(s.count))
	} else {
		r.set("scenario.parse_us", "us", 0)
	}
	r.set("scenario.expand_ms", "ms", ms("scenario.expand"))
	r.set("scenario.render_ms", "ms", ms("scenario.render"))
	r.set("problems.check_ms", "ms", ms("problems.check"))
	r.set("local.ns_per_step", "ns", rp.nsPerStep("local"))
	r.set("core.ns_per_step", "ns", rp.nsPerStep("core"))
	r.set("lift.ns_per_step", "ns", rp.nsPerStep("lift"))
	var steps int64
	for _, t := range rp.engines {
		steps += t.steps
	}
	r.set("local.steps", "count", float64(steps))
	r.set("local.rounds", "count", float64(rp.rounds))
	r.set("local.messages", "count", float64(rp.messages))
	if steps > 0 {
		r.set("local.alloc_bytes_per_step", "B", rp.allocBytes/float64(steps))
	} else {
		r.set("local.alloc_bytes_per_step", "B", 0)
	}
	if rp.busyCPU > 0 {
		r.set("local.gc_cpu_frac", "ratio", rp.gcCPU/rp.busyCPU)
	} else {
		r.set("local.gc_cpu_frac", "ratio", 0)
	}
	r.set("serve.exec_ms", "ms", meanMs("serve.exec"))
	r.set("serve.encode_ms", "ms", meanMs("serve.encode"))
	r.set("job.append_ms", "ms", meanMs("job.append"))
	r.set("job.write_result_ms", "ms", meanMs("job.write_result"))
	r.set("job.replay_ms", "ms", ms("job.replay"))

	self := rp.tr.selfByLayer()
	var sum time.Duration
	for _, l := range []string{"graph", "scenario", "local", "core", "lift", "problems", "render", "serve", "job"} {
		r.set("self."+l+"_ms", "ms", float64(self[l])/float64(time.Millisecond))
		sum += self[l]
	}
	r.set("trace.wall_ms", "ms", float64(wall)/float64(time.Millisecond))
	r.set("trace.layer_sum_frac", "ratio", float64(sum)/float64(wall))
	r.set("trace.overhead_frac", "ratio", float64(wall-untraced)/float64(untraced))
}

// traceReplay runs a workload's replay untraced and then traced, reports
// the traced replay's per-layer metrics and writes its spans.
func (b *bench) traceReplay(replay func(*tracer) (*replayer, time.Duration, error)) error {
	_, untraced, err := replay(newTracer(false))
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	tr := newTracer(true)
	rp, wall, err := replay(tr)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	b.rep.op(nil)
	rp.report(b.rep, wall, untraced)
	return tr.write(filepath.Join(filepath.Dir(b.work), "trace-"+*flagWorkload+".jsonl"))
}
