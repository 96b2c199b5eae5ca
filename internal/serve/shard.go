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

// ExecuteShard expands one spec's full job grid, runs only the slots the
// shard owns, validates their outputs and returns the shard document. It is
// the one executor of every localserved front: a whole grid is shard 0/1.
// Expansion still builds the whole graph — slots share it — but simulation
// work shrinks to the shard's share, which is the resource a sweep is
// bounded by. Error wrapping and wording match Execute, so a whole grid
// fails with the text localbench prints: spec problems wrap ErrSpec,
// execution problems (including sweep.ErrCanceled) return as-is, with a
// genuine slot failure preferred over a concurrent cancellation so a
// deterministic client error is never misreported as a transient one.
func ExecuteShard(spec *scenario.Spec, shard scenario.Shard, opts ExecOptions) (*ShardDoc, sweep.Stats, error) {
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
	batch, err := scenario.Expand([]*scenario.Spec{spec}, scenario.ExpandOptions{
		Corpus:     opts.Corpus,
		SeedOffset: opts.SeedOffset,
	})
	if err != nil {
		return nil, sweep.Stats{}, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	slots := shard.Slots(len(batch.Jobs))
	sub := make([]sweep.Job, len(slots))
	for k, slot := range slots {
		sub[k] = batch.Jobs[slot]
	}
	var onResult func(int, sweep.Result)
	if opts.OnSlot != nil {
		// Failed and canceled slots are not reported: a progress stream only
		// ever sees outcomes that will appear in the final document.
		onResult = func(k int, r sweep.Result) {
			if r.Err == nil && r.Res != nil {
				opts.OnSlot(scenario.SlotOutcome{Slot: slots[k], Rounds: r.Res.Rounds, Messages: r.Res.Messages})
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
		slot := slots[res.FirstIncomplete()]
		return nil, stats, fmt.Errorf("scenario %s: %s: %w", spec.Name, batch.Jobs[slot].Label, err)
	}
	doc := &ShardDoc{
		SchemaVersion: ShardDocSchemaVersion,
		Spec:          spec.Name,
		Seed:          opts.SeedOffset + 1,
		Shard:         shard,
		Jobs:          len(batch.Jobs),
		Graph:         scenario.InfoOf(batch.Graphs[0]),
		Slots:         make([]scenario.SlotOutcome, 0, len(slots)),
	}
	for k, slot := range slots {
		r := res[k]
		if err := batch.Check(slot, r.Res.Outputs); err != nil {
			return nil, stats, fmt.Errorf("scenario %s: %s: invalid output: %w", spec.Name, batch.Jobs[slot].Label, err)
		}
		doc.Slots = append(doc.Slots, scenario.SlotOutcome{Slot: slot, Rounds: r.Res.Rounds, Messages: r.Res.Messages})
	}
	return doc, stats, nil
}
