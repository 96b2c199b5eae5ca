// Package benchfmt declares the BENCH.json schema shared by its writer
// (cmd/localbench -scenarios -json, whose records scenario.SlotsDoc builds)
// and its guard (cmd/benchguard), so the two cannot drift apart silently: a
// field added or renamed here is marshalled and compared by both sides, and
// the schema tables in EXPERIMENTS.md document exactly these types.
package benchfmt

// SchemaVersion is the current BENCH.json schema version. Version 4 added
// the instruction-budget trend: per-record node-steps and the Instr block
// (deterministic steps-per-job plus the machine-dependent ns/step trend
// benchguard pins); version 3 added an optional corpus cold/warm block,
// since dropped (BenchmarkCorpusColdVsWarm in internal/graph measures that
// pair); version 2 switched Allocs to the scheduler's per-worker counters.
const SchemaVersion = 4

// Record is one measured simulation.
type Record struct {
	Experiment string `json:"experiment"`
	Label      string `json:"label"`
	Algorithm  string `json:"algorithm"`
	N          int    `json:"n"`
	Rounds     int    `json:"rounds"`
	Messages   int64  `json:"messages"`
	WallNs     int64  `json:"wall_ns"`
	// Allocs counts the run's engine-buffer allocations from the scheduler's
	// per-worker RunState counters (schema 1 reported a global
	// runtime.MemStats delta, which misattributed concurrent allocations and
	// GC noise). Deterministic at parallel 1 — the setting the committed
	// BENCH.json is generated with; under a parallel sweep the job→worker
	// assignment is timing-dependent, so warm/cold placement may vary.
	Allocs uint64 `json:"allocs"`
	// Steps is the run's total node-steps (Σ per-round live-frontier sizes)
	// — the engine's deterministic work measure, identical at any worker
	// count and pinned by benchguard like rounds and messages. Zero (and
	// omitted) in the served deterministic view (scenario.SlotsDoc), which
	// is built from shard slot outcomes: rounds and messages only.
	Steps int64 `json:"steps,omitempty"`
	// Ratio is uniform rounds / non-uniform rounds, on uniform records only.
	Ratio float64 `json:"ratio,omitempty"`
}

// SweepStats is the batch-throughput block: the run-level throughput of the
// whole invocation, tracked across PRs.
type SweepStats struct {
	Jobs         int     `json:"jobs"`
	Workers      int     `json:"workers"`
	WallNs       int64   `json:"wall_ns"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	EngineAllocs uint64  `json:"engine_allocs"`
}

// InstrStats is the schema-v4 instruction-budget block: the sweep's total
// engine work in node-steps and the derived trend rates. NodeSteps,
// StepsPerJob and FrontierOccupancy are pure functions of (graphs,
// algorithms, seeds) — benchguard requires them byte-equal across
// regenerations. NsPerStep (sweep wall time over node-steps) is the
// machine-dependent instruction-cost trend: benchguard normalizes it by the
// same machine factor as the pinned wall gates and fails CI on >20%
// regressions, printing the trend line either way so wins are visible too.
type InstrStats struct {
	NodeSteps         int64   `json:"node_steps"`
	StepsPerJob       float64 `json:"steps_per_job"`
	NsPerStep         float64 `json:"ns_per_step"`
	FrontierOccupancy float64 `json:"frontier_occupancy"`
}

// Doc is the top-level BENCH.json document.
type Doc struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedBy   string `json:"generated_by"`
	Seed          int64  `json:"seed"`
	Parallel      int    `json:"parallel"`
	Workers       int    `json:"workers"`
	// Large is always false: the size switch it recorded is gone, and the
	// field stays only so served documents keep their committed bytes.
	Large bool       `json:"large"`
	Sweep SweepStats `json:"sweep"`
	// Instr is the instruction-budget block (schema ≥ 4); absent in
	// documents whose records carry no step counts.
	Instr   *InstrStats `json:"instr,omitempty"`
	Results []Record    `json:"results"`
}
