package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/unilocal/unilocal/internal/benchfmt"
	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/sweep"
)

// ExpandOptions configures the spec → job expansion.
type ExpandOptions struct {
	// Corpus memoizes the graphs; nil creates a private one.
	Corpus *graph.Corpus
	// SeedOffset is added to every spec seed. cmd/localbench maps its -seed
	// flag to SeedOffset = seed-1, so the default -seed 1 runs the corpus
	// exactly as committed while other values shift the whole grid.
	SeedOffset int64
}

// JobMeta is the planning-time context of one expanded job.
type JobMeta struct {
	// Spec indexes Batch.Specs.
	Spec int
	// Algo is the algorithm the job runs; Role is "uniform" (the algorithm
	// under test) or "baseline".
	Algo AlgoSpec
	Role string
	// Seed is the effective simulation seed (spec seed + offset); Rep is the
	// repetition index.
	Seed int64
	Rep  int
	// Know is the knowledge regime this job's algorithm was built under; the
	// zero value (exact) for uniform algorithms and default-regime corpora.
	Know core.Knowledge
	// RatioOf is the job index of the same (seed, rep)'s tightest baseline
	// run, or -1.
	RatioOf int
	// check validates the run's outputs; Expand sets it.
	check func(outputs []any) error
}

// label renders the benchfmt record label of one job: role/seed/rep, with a
// λ suffix under non-exact knowledge. Doc and SlotsDoc both write exactly
// this.
func (m *JobMeta) label() string {
	l := fmt.Sprintf("%s/seed=%d/rep=%d", m.Role, m.Seed, m.Rep)
	if !m.Know.IsExact() {
		l += fmt.Sprintf("/lam=%g", m.Know.Looseness)
	}
	return l
}

// Batch is an expanded corpus: the jobs in deterministic order (spec order,
// then seed-major, with the baseline preceding the algorithm under test)
// plus everything rendering needs. Each spec's jobs are contiguous, in its
// Plan's slot order, so batch job index = spec base + plan slot.
type Batch struct {
	Specs  []*Spec
	Plans  []*Plan
	Graphs []*graph.Graph
	Jobs   []sweep.Job
	Metas  []JobMeta
	// AlgoBuilds counts registry Build calls; AlgoShares counts the times a
	// scenario reused an already-built uniform algorithm (and with it the
	// algorithm's memoized plan) instead of constructing a fresh one.
	AlgoBuilds int
	AlgoShares int
}

// Check validates job ji's outputs through its registry checker. Shard
// executors call this on exactly the slots they ran — outputs exist only on
// the process that ran the simulation, so validation cannot be deferred to
// the coordinator.
func (b *Batch) Check(ji int, outputs []any) error {
	return b.Metas[ji].check(outputs)
}

// Expand validates the specs and turns them into sweep jobs. Uniform
// algorithms (registry entries without PerGraph) are built once per AlgoSpec
// and shared across every scenario, seed and repetition that names them, so
// their memoized plans are paid once per batch.
func Expand(specs []*Spec, opts ExpandOptions) (*Batch, error) {
	c := opts.Corpus
	if c == nil {
		c = graph.NewCorpus()
	}
	b := &Batch{Specs: specs}
	shared := make(map[AlgoSpec]local.Algorithm)
	for si, s := range specs {
		p, err := PlanOf(s, opts.SeedOffset)
		if err != nil {
			return nil, err
		}
		base, err := s.Graph.Build(c)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		g, err := s.IDs.Apply(c, base)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		b.Graphs = append(b.Graphs, g)
		b.Plans = append(b.Plans, p)

		// The true parameter vector is measured once per spec graph; each
		// PerGraph build receives it filtered through the job's knowledge
		// regime (exact by default, inflated under upper-bound).
		trueParams := engines.GraphParams(g)
		type buildKey struct {
			as   AlgoSpec
			know core.Knowledge
		}
		type buildVal struct {
			algo  local.Algorithm
			check func([]any) error
		}
		built := make(map[buildKey]buildVal)
		build := func(as AlgoSpec, know core.Knowledge) (local.Algorithm, func([]any) error, error) {
			entry, ok := LookupAlgorithm(as.Name)
			if !ok {
				return nil, nil, fmt.Errorf("scenario %s: unknown algorithm %q", s.Name, as.Name)
			}
			if v, ok := built[buildKey{as, know}]; ok {
				return v.algo, v.check, nil
			}
			params := core.Params{}
			if entry.PerGraph {
				var err error
				params, err = know.Advertise(trueParams)
				if err != nil {
					return nil, nil, fmt.Errorf("scenario %s: algorithm %s: %w", s.Name, as.Name, err)
				}
			}
			// The check sees the parameters the build does: a baseline's
			// guarantee is stated in its advertised guesses.
			check := func(outputs []any) error { return entry.Check(g, params, as, outputs) }
			if a, ok := shared[as]; ok {
				b.AlgoShares++
				return a, check, nil
			}
			a, err := entry.Build(params, as)
			if err != nil {
				return nil, nil, fmt.Errorf("scenario %s: algorithm %s: %w", s.Name, as.Name, err)
			}
			b.AlgoBuilds++
			if !entry.PerGraph {
				shared[as] = a
			} else {
				built[buildKey{as, know}] = buildVal{algo: a, check: check}
			}
			return a, check, nil
		}

		// The plan already fixed the grid: attach the built graph, algorithm
		// values and checkers to its slots, re-basing RatioOf from plan-local
		// to batch-global indices. The scheduler wraps each job's algorithm
		// value — a pure function of (spec, job seed), so wrapped jobs keep
		// the determinism contract.
		baseIdx := len(b.Jobs)
		for k := range p.Metas {
			m := p.Metas[k]
			a, check, err := build(m.Algo, m.Know)
			if err != nil {
				return nil, err
			}
			a = s.Scheduler.wrapAlgo(a, m.Seed)
			b.Jobs = append(b.Jobs, sweep.Job{
				Label:     p.Labels[k],
				Graph:     g,
				Algo:      func() local.Algorithm { return a },
				Seed:      m.Seed,
				MaxRounds: s.MaxRounds,
				Permute:   s.Scheduler.permuteOpt(),
			})
			m.Spec = si
			if m.RatioOf >= 0 {
				m.RatioOf += baseIdx
			}
			m.check = check
			b.Metas = append(b.Metas, m)
		}
	}
	return b, nil
}

// Render writes the corpus results as markdown, one section per scenario, in
// batch order. Every rendered field is deterministic (rounds, messages,
// ratios — never wall time), so sequential and parallel sweeps of the same
// batch produce byte-identical output; CI's scenario gate diffs exactly
// this. Each job's outputs are re-validated through its registry checker,
// and a failed check (or failed job) aborts rendering with an error naming
// the job. The results reduce to a Table and Table.Write writes it — the
// same model and writer the distributed fabric merges shard documents into,
// which is what makes a multi-replica sweep byte-identical to this
// single-process path.
func Render(w io.Writer, b *Batch, results []sweep.Result) error {
	if len(results) != len(b.Jobs) {
		return fmt.Errorf("scenario: %d results for %d jobs", len(results), len(b.Jobs))
	}
	t := &Table{Jobs: len(b.Jobs), Sections: make([]Section, 0, len(b.Plans))}
	base := 0
	for si, p := range b.Plans {
		slots := make([]SlotOutcome, len(p.Metas))
		for k := range p.Metas {
			ji := base + k
			r := results[ji]
			if r.Err != nil {
				return fmt.Errorf("scenario %s: %s: %w", b.Specs[si].Name, b.Jobs[ji].Label, r.Err)
			}
			if err := b.Check(ji, r.Res.Outputs); err != nil {
				return fmt.Errorf("scenario %s: %s: invalid output: %w", b.Specs[si].Name, b.Jobs[ji].Label, err)
			}
			slots[k] = SlotOutcome{Slot: k, Rounds: r.Res.Rounds, Messages: r.Res.Messages}
		}
		sec, err := SectionFrom(p, InfoOf(b.Graphs[si]), slots)
		if err != nil {
			return err
		}
		t.Sections = append(t.Sections, sec)
		base += len(p.Metas)
	}
	return t.Write(w)
}

// Documents renders the two documents the serving layer answers for one
// spec: the markdown table and the indented JSON benchfmt document with its
// trailing newline, built from the graph header and the full slot-indexed
// outcomes (slots[k] is plan slot k). It is the one document builder of
// every localserved front — a whole-grid POST /run builds from its one-shard
// execution, the job manager from its checkpoints — so a document is
// byte-identical whichever front or process computed its slots.
func Documents(s *Spec, seed int64, info GraphInfo, slots []SlotOutcome) (md, js []byte, err error) {
	p, err := PlanOf(s, seed-1)
	if err != nil {
		return nil, nil, err
	}
	sec, err := SectionFrom(p, info, slots)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	t := Table{Jobs: p.Jobs(), Sections: []Section{sec}}
	if err := t.Write(&buf); err != nil {
		return nil, nil, err
	}
	doc, err := SlotsDoc(p, info, slots, seed)
	if err != nil {
		return nil, nil, err
	}
	if js, err = json.MarshalIndent(doc, "", "  "); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), append(js, '\n'), nil
}

// SlotsDoc builds the serving layer's scrubbed benchfmt document for one
// plan from slot outcomes alone — no batch, no results, no graph. Every
// field it writes is a pure function of (plan, graph header, outcomes);
// wall times, allocation counters, node-steps and parallelism are left zero,
// since a shard reports only rounds and messages per slot.
func SlotsDoc(p *Plan, info GraphInfo, slots []SlotOutcome, seed int64) (*benchfmt.Doc, error) {
	if len(slots) != len(p.Metas) {
		return nil, fmt.Errorf("scenario %s: %d slot outcomes for %d jobs", p.Spec.Name, len(slots), len(p.Metas))
	}
	records := make([]benchfmt.Record, 0, len(p.Metas))
	for i := range p.Metas {
		m := &p.Metas[i]
		rec := benchfmt.Record{
			Experiment: p.Spec.Name,
			Label:      m.label(),
			Algorithm:  m.Algo.String(),
			N:          info.N,
			Rounds:     slots[i].Rounds,
			Messages:   slots[i].Messages,
		}
		if m.RatioOf >= 0 {
			rec.Ratio = float64(slots[i].Rounds) / float64(slots[m.RatioOf].Rounds)
		}
		records = append(records, rec)
	}
	return &benchfmt.Doc{
		SchemaVersion: benchfmt.SchemaVersion,
		GeneratedBy:   "cmd/localserved",
		Seed:          seed,
		Sweep:         benchfmt.SweepStats{Jobs: len(slots)},
		Results:       records,
	}, nil
}

// Doc assembles the complete schema-4 benchfmt document for a completed
// batch: one record per job in batch order (Experiment = scenario name, with
// its node-steps), the sweep throughput block and the instruction-budget
// block. Unlike Render it does not re-validate outputs; run Render first (or
// check errors yourself) before trusting the records.
func Doc(b *Batch, results []sweep.Result, stats sweep.Stats, seed int64, parallel, workers int) (*benchfmt.Doc, error) {
	records := make([]benchfmt.Record, 0, len(b.Jobs))
	for ji := range b.Jobs {
		m := &b.Metas[ji]
		r := results[ji]
		if r.Err != nil {
			return nil, fmt.Errorf("scenario %s: %s: %w", b.Specs[m.Spec].Name, b.Jobs[ji].Label, r.Err)
		}
		rec := benchfmt.Record{
			Experiment: b.Specs[m.Spec].Name,
			Label:      m.label(),
			Algorithm:  m.Algo.String(),
			N:          b.Graphs[m.Spec].N(),
			Rounds:     r.Res.Rounds,
			Messages:   r.Res.Messages,
			WallNs:     r.Wall.Nanoseconds(),
			Allocs:     r.Allocs,
			Steps:      r.Res.Steps,
		}
		if m.RatioOf >= 0 && results[m.RatioOf].Res != nil {
			rec.Ratio = float64(r.Res.Rounds) / float64(results[m.RatioOf].Res.Rounds)
		}
		records = append(records, rec)
	}
	doc := &benchfmt.Doc{
		SchemaVersion: benchfmt.SchemaVersion,
		GeneratedBy:   "cmd/localbench -scenarios",
		Seed:          seed,
		Parallel:      parallel,
		Workers:       workers,
		Sweep: benchfmt.SweepStats{
			Jobs:         stats.Jobs,
			Workers:      stats.Workers,
			WallNs:       stats.Wall.Nanoseconds(),
			JobsPerSec:   stats.JobsPerSec,
			EngineAllocs: stats.EngineAllocs,
		},
		Results: records,
	}
	if stats.NodeSteps > 0 {
		doc.Instr = &benchfmt.InstrStats{
			NodeSteps:         stats.NodeSteps,
			StepsPerJob:       float64(stats.NodeSteps) / float64(stats.Jobs),
			NsPerStep:         float64(stats.Wall.Nanoseconds()) / float64(stats.NodeSteps),
			FrontierOccupancy: stats.FrontierOccupancy,
		}
	}
	return doc, nil
}
