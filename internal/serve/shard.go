package serve

import (
	"fmt"

	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/sweep"
)

// ShardDocSchemaVersion versions the shard wire format; a coordinator
// refuses documents from replicas speaking a different version instead of
// merging fields that silently moved.
const ShardDocSchemaVersion = 1

// ShardDoc is the wire format of one shard execution: the deterministic
// outcome of every slot the shard owns, keyed by global slot index, plus
// the echo fields (spec name, seed, shard, grid size, graph header) a
// coordinator cross-checks before merging. It deliberately carries no
// outputs and no timing: outputs are validated by the registry checkers on
// the replica that ran the slot, and every remaining field is a pure
// function of (spec, seed) — which is why merging shard documents from any
// mix of replicas, retries and fallbacks reproduces the single-process
// document byte for byte.
type ShardDoc struct {
	SchemaVersion int                    `json:"schema_version"`
	Spec          string                 `json:"spec"`
	Seed          int64                  `json:"seed"`
	Shard         scenario.Shard         `json:"shard"`
	Jobs          int                    `json:"jobs"`
	Graph         scenario.GraphInfo     `json:"graph"`
	Slots         []scenario.SlotOutcome `json:"slots"`
}

// Validate checks the document's internal consistency against the grid
// shape the client planned: version, echoed identifiers, and that the slot
// set is exactly the shard's partition of the grid, in ascending order. A
// coordinator calls this on every response before merging, so a corrupted
// or truncated body — or a replica running different code — is a retriable
// transport failure, never a silent wrong merge.
func (d *ShardDoc) Validate(specName string, seed int64, shard scenario.Shard, jobs int) error {
	if d.SchemaVersion != ShardDocSchemaVersion {
		return fmt.Errorf("shard doc: schema version %d, want %d", d.SchemaVersion, ShardDocSchemaVersion)
	}
	if d.Spec != specName {
		return fmt.Errorf("shard doc: spec %q, want %q", d.Spec, specName)
	}
	if d.Seed != seed {
		return fmt.Errorf("shard doc: seed %d, want %d", d.Seed, seed)
	}
	if d.Shard != shard {
		return fmt.Errorf("shard doc: shard %s, want %s", d.Shard, shard)
	}
	if d.Jobs != jobs {
		return fmt.Errorf("shard doc: grid of %d jobs, planned %d", d.Jobs, jobs)
	}
	want := shard.Slots(jobs)
	if len(d.Slots) != len(want) {
		return fmt.Errorf("shard doc: %d slots, want %d", len(d.Slots), len(want))
	}
	for k, slot := range d.Slots {
		if slot.Slot != want[k] {
			return fmt.Errorf("shard doc: slot[%d] = %d, want %d", k, slot.Slot, want[k])
		}
		if slot.Rounds < 0 || slot.Messages < 0 {
			return fmt.Errorf("shard doc: slot %d has negative outcome", slot.Slot)
		}
	}
	return nil
}

// ExecuteShard expands the specs' full job grids, runs only the slots the
// shard owns in every grid, validates their outputs and returns one shard
// document per spec, in spec order. It is the one executor: every
// localserved front passes one spec (a whole grid is shard 0/1), and
// cmd/localbench passes all its specs as shard 0/1, so their jobs share one
// sweep, in batch order, under one Parallel budget. Expansion still builds
// every whole graph — slots share it — but simulation work shrinks to the
// shard's share, which is the resource a sweep is bounded by. Each slot
// outcome carries the run's measurements (wall time, allocations,
// node-steps), which never marshal.
//
// Spec problems wrap ErrSpec. Execution problems (including
// sweep.ErrCanceled) return as-is, worded "scenario <name>: <job label>: …".
// A genuine slot failure is reported before a concurrent cancellation, so a
// deterministic client error is never misreported as a transient one, and
// before any invalid output, which is checked only once every slot ran.
func ExecuteShard(specs []*scenario.Spec, shard scenario.Shard, opts ExecOptions) ([]*ShardDoc, sweep.Stats, error) {
	if err := shard.Validate(); err != nil {
		return nil, sweep.Stats{}, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	// Expansion (graph generation included) is not cancellable; refuse work
	// for a context that is already dead rather than building for a caller
	// that is gone. Callers bound expansion size up front (see
	// Config.MaxNodes) — mid-expansion the context is not consulted.
	if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
		return nil, sweep.Stats{}, fmt.Errorf("%w: %w: batch not started", sweep.ErrCanceled, ctx.Err())
	}
	batch, err := scenario.Expand(specs, scenario.ExpandOptions{
		Corpus:     opts.Corpus,
		SeedOffset: opts.SeedOffset,
	})
	if err != nil {
		return nil, sweep.Stats{}, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	// The shard's k-th job is batch job jobs[k], slot[k] of its spec's grid.
	docs := make([]*ShardDoc, len(specs))
	var jobs, slot []int
	base := 0
	for si, p := range batch.Plans {
		owned := shard.Slots(p.Jobs())
		docs[si] = &ShardDoc{
			SchemaVersion: ShardDocSchemaVersion,
			Spec:          specs[si].Name,
			Seed:          opts.SeedOffset + 1,
			Shard:         shard,
			Jobs:          p.Jobs(),
			Graph:         scenario.InfoOf(batch.Graphs[si]),
			Slots:         make([]scenario.SlotOutcome, 0, len(owned)),
		}
		for _, sl := range owned {
			jobs, slot = append(jobs, base+sl), append(slot, sl)
		}
		base += p.Jobs()
	}
	sub := make([]sweep.Job, len(jobs))
	for k, ji := range jobs {
		sub[k] = batch.Jobs[ji]
	}
	outcome := func(k int, r sweep.Result) scenario.SlotOutcome {
		return scenario.SlotOutcome{
			Slot: slot[k], Rounds: r.Res.Rounds, Messages: r.Res.Messages,
			Wall: r.Wall, Allocs: r.Allocs, Steps: r.Res.Steps,
		}
	}
	var onResult func(int, sweep.Result)
	if opts.OnSlot != nil {
		// Failed and canceled slots are not reported: a progress stream only
		// ever sees outcomes that will appear in the final document.
		onResult = func(k int, r sweep.Result) {
			if r.Err == nil && r.Res != nil {
				opts.OnSlot(outcome(k, r))
			}
		}
	}
	res, stats := sweep.Run(sub, sweep.Options{
		Parallel:      opts.Parallel,
		EngineWorkers: opts.EngineWorkers,
		Context:       opts.Context,
		OnResult:      onResult,
	})
	if err := res.FirstErr(); err != nil {
		ji := jobs[res.FirstIncomplete()]
		return nil, stats, fmt.Errorf("scenario %s: %s: %w", specs[batch.Metas[ji].Spec].Name, batch.Jobs[ji].Label, err)
	}
	for k, ji := range jobs {
		si := batch.Metas[ji].Spec
		if err := batch.Check(ji, res[k].Res.Outputs); err != nil {
			return nil, stats, fmt.Errorf("scenario %s: %s: invalid output: %w", specs[si].Name, batch.Jobs[ji].Label, err)
		}
		docs[si].Slots = append(docs[si].Slots, outcome(k, res[k]))
	}
	return docs, stats, nil
}
