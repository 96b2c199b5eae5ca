package scenario

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/graph"
)

// GraphInfo is the deterministic graph header of one scenario section —
// exactly the fields the rendered document prints. A shard reports these
// over the wire so the coordinator can reproduce the header (and
// cross-check that every replica built the same graph) without building the
// graph itself.
type GraphInfo struct {
	N      int   `json:"n"`
	Edges  int   `json:"edges"`
	MaxDeg int   `json:"max_degree"`
	MaxID  int64 `json:"max_id"`
}

// InfoOf reads the header fields off a built graph.
func InfoOf(g *graph.Graph) GraphInfo {
	return GraphInfo{N: g.N(), Edges: g.NumEdges(), MaxDeg: g.MaxDegree(), MaxID: g.MaxIDValue()}
}

// SlotOutcome is the outcome of one job slot. Slot, Rounds and Messages are
// deterministic and the only fields that cross the wire in a shard
// document. Outputs never travel — they are validated by the registry
// checkers on the process that ran the slot.
type SlotOutcome struct {
	Slot     int   `json:"slot"`
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	// Wall, Allocs and Steps are the run's measurements (sweep.Result's Wall
	// and Allocs, local.Result's Steps), filled by the executor for the
	// process that ran the slot. They never marshal, so shard documents,
	// journals and progress events stay pure functions of (spec, seed).
	Wall   time.Duration `json:"-"`
	Allocs uint64        `json:"-"`
	Steps  int64         `json:"-"`
}

// Row is one rendered table line.
type Row struct {
	Algo     string
	Role     string
	Seed     int64
	Rep      int
	Rounds   int
	Messages int64
	Ratio    string
}

// SweepRow is one (seed, rep) line of a looseness-sweep pivot: the uniform
// algorithm's rounds next to the baseline's rounds at every λ of the grid.
type SweepRow struct {
	Seed     int64
	Rep      int
	Uniform  int
	Baseline []int
}

// Section is one scenario's slice of the render model.
type Section struct {
	Name        string
	Description string
	Graph       string
	IDs         string
	// Knowledge and Scheduler render in the header only when the spec sets
	// a non-default regime, so exact-knowledge corpora stay byte-identical.
	Knowledge string
	Scheduler string
	Info      GraphInfo
	Rows      []Row
	// Looseness and Sweep carry the pivot table of an upper-bound spec with
	// a multi-λ grid and a single uniform run per (seed, rep); empty
	// otherwise.
	Looseness []float64
	Sweep     []SweepRow
}

// Table is the deterministic render model of a whole corpus document. Every
// document is assembled through Add — by cmd/localbench from its one-shard
// execution, by localserved from a spec's slots, by the fabric coordinator
// from merged shard documents — so the markdown they write is
// byte-identical by construction, not by parallel maintenance of two
// formatters.
type Table struct {
	Jobs     int
	Sections []Section
}

// Add appends one spec's section, built by SectionFrom from its plan, graph
// header and full slot-indexed outcomes, and counts the plan's jobs.
func (t *Table) Add(p *Plan, info GraphInfo, slots []SlotOutcome) error {
	sec, err := SectionFrom(p, info, slots)
	if err != nil {
		return err
	}
	t.Jobs += p.Jobs()
	t.Sections = append(t.Sections, sec)
	return nil
}

// SectionFrom assembles one spec's section from its plan, the graph header
// and a full slot-indexed set of outcomes (slots[k] is the outcome of plan
// slot k). Ratios are computed here, coordinator-side in a distributed run:
// a baseline and its uniform partner may have executed on different
// replicas, but both report raw rounds, and the ratio is a pure function of
// those.
func SectionFrom(p *Plan, info GraphInfo, slots []SlotOutcome) (Section, error) {
	if len(slots) != len(p.Metas) {
		return Section{}, fmt.Errorf("scenario %s: %d slot outcomes for %d jobs", p.Spec.Name, len(slots), len(p.Metas))
	}
	s := p.Spec
	sec := Section{
		Name:        s.Name,
		Description: s.Description,
		Graph:       s.Graph.String(),
		IDs:         s.IDs.String(),
		Info:        info,
		Rows:        make([]Row, 0, len(p.Metas)),
	}
	if !s.Knowledge.IsDefault() {
		sec.Knowledge = s.Knowledge.String()
	}
	if !s.Scheduler.IsDefault() {
		sec.Scheduler = s.Scheduler.String()
	}
	for i := range p.Metas {
		m := &p.Metas[i]
		ratio := "—"
		if m.RatioOf >= 0 {
			ratio = fmt.Sprintf("%.2f", float64(slots[i].Rounds)/float64(slots[m.RatioOf].Rounds))
		}
		algo := m.Algo.String()
		if !m.Know.IsExact() {
			algo = fmt.Sprintf("%s @ λ=%g", algo, m.Know.Looseness)
		}
		sec.Rows = append(sec.Rows, Row{
			Algo:     algo,
			Role:     m.Role,
			Seed:     m.Seed,
			Rep:      m.Rep,
			Rounds:   slots[i].Rounds,
			Messages: slots[i].Messages,
			Ratio:    ratio,
		})
	}
	sec.Looseness, sec.Sweep = sweepPivot(p, slots)
	return sec, nil
}

// sweepPivot reduces an upper-bound spec's slots to the looseness pivot:
// one row per (seed, rep) with the uniform rounds and the baseline rounds
// at every λ, in grid order. It applies only to the canonical sweep shape —
// a multi-λ grid on the baseline, a single (exact) uniform run — and
// returns nothing otherwise. Like every rendered field it is a pure
// function of (plan, slots), so the distributed merge path pivots
// identically to the single-process one.
func sweepPivot(p *Plan, slots []SlotOutcome) ([]float64, []SweepRow) {
	s := p.Spec
	if s.Knowledge.Regime != core.KnowUpperBound || s.Baseline == nil {
		return nil, nil
	}
	grid := s.Knowledge.Grid()
	if len(grid) < 2 || len(s.knowledgeGrid(s.Algorithm)) != 1 {
		return nil, nil
	}
	lams := make([]float64, len(grid))
	for i, k := range grid {
		lams[i] = k.Looseness
	}
	var rows []SweepRow
	perGroup := len(grid) + 1 // λ baselines then one uniform, per (seed, rep)
	for base := 0; base+perGroup <= len(p.Metas); base += perGroup {
		m := &p.Metas[base]
		row := SweepRow{Seed: m.Seed, Rep: m.Rep, Baseline: make([]int, len(grid))}
		for i := range grid {
			row.Baseline[i] = slots[base+i].Rounds
		}
		row.Uniform = slots[base+len(grid)].Rounds
		rows = append(rows, row)
	}
	return lams, rows
}

// Write renders the document. Every written field is deterministic, so two
// tables built from the same specs and seeds — whether the outcomes came
// from one process or were merged from N replicas — serialize to the same
// bytes.
func (t *Table) Write(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "## Scenario corpus — %d scenarios, %d jobs\n", len(t.Sections), t.Jobs)
	for i := range t.Sections {
		sec := &t.Sections[i]
		fmt.Fprintf(ew, "\n### %s\n\n", sec.Name)
		if sec.Description != "" {
			fmt.Fprintf(ew, "%s\n\n", sec.Description)
		}
		fmt.Fprintf(ew, "graph: %s · ids: %s · n=%d · edges=%d · Δ=%d · m=%d",
			sec.Graph, sec.IDs, sec.Info.N, sec.Info.Edges, sec.Info.MaxDeg, sec.Info.MaxID)
		if sec.Knowledge != "" {
			fmt.Fprintf(ew, " · knowledge: %s", sec.Knowledge)
		}
		if sec.Scheduler != "" {
			fmt.Fprintf(ew, " · scheduler: %s", sec.Scheduler)
		}
		fmt.Fprint(ew, "\n\n")
		fmt.Fprintln(ew, "| algorithm | role | seed | rep | rounds | messages | ratio |")
		fmt.Fprintln(ew, "|---|---|---|---|---|---|---|")
		for _, r := range sec.Rows {
			fmt.Fprintf(ew, "| %s | %s | %d | %d | %d | %d | %s |\n",
				r.Algo, r.Role, r.Seed, r.Rep, r.Rounds, r.Messages, r.Ratio)
		}
		if len(sec.Sweep) > 0 {
			fmt.Fprintln(ew, "\nOverhead vs looseness (baseline rounds per λ; ×u is the overhead over the uniform run):")
			fmt.Fprintln(ew)
			var h, d strings.Builder
			h.WriteString("| seed | rep | uniform |")
			d.WriteString("|---|---|---|")
			for _, lam := range sec.Looseness {
				fmt.Fprintf(&h, " λ=%g |", lam)
				d.WriteString("---|")
			}
			fmt.Fprintln(ew, h.String())
			fmt.Fprintln(ew, d.String())
			for _, r := range sec.Sweep {
				fmt.Fprintf(ew, "| %d | %d | %d |", r.Seed, r.Rep, r.Uniform)
				for _, b := range r.Baseline {
					fmt.Fprintf(ew, " %d (×u %.2f) |", b, float64(b)/float64(r.Uniform))
				}
				fmt.Fprintln(ew)
			}
		}
	}
	return ew.err
}

// errWriter latches the first write error so the formatting code above
// stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}
