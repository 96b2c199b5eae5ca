package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/unilocal/unilocal/internal/sweep"
)

func planTestSpec() *Spec {
	base := &AlgoSpec{Name: "nonuniform-mis-delta"}
	return &Spec{
		Name:      "plan-probe",
		Graph:     GraphSpec{Family: "cycle", N: 16},
		Algorithm: AlgoSpec{Name: "uniform-mis-delta"},
		Baseline:  base,
		Seeds:     []int64{1, 5},
		Repeat:    2,
	}
}

// TestPlanMatchesExpand pins the contract the fabric depends on: the
// graph-free plan and the full expansion agree on grid shape, labels, metas
// and ratio links (after re-basing to batch indices).
func TestPlanMatchesExpand(t *testing.T) {
	s := planTestSpec()
	p, err := PlanOf(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Jobs() != s.ApproxJobs() {
		t.Fatalf("plan has %d jobs, ApproxJobs says %d", p.Jobs(), s.ApproxJobs())
	}
	b, err := Expand([]*Spec{s}, ExpandOptions{SeedOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Jobs) != p.Jobs() {
		t.Fatalf("batch has %d jobs, plan %d", len(b.Jobs), p.Jobs())
	}
	if len(b.Plans) != 1 || b.Plans[0].Jobs() != p.Jobs() {
		t.Fatalf("batch plans not attached: %+v", b.Plans)
	}
	for k := range p.Metas {
		if got, want := b.Jobs[k].Label, p.Labels[k]; got != want {
			t.Errorf("slot %d label: batch %q, plan %q", k, got, want)
		}
		pm, bm := p.Metas[k], b.Metas[k]
		pm.Spec = bm.Spec // plan metas are spec-local
		bm.check = nil
		if !reflect.DeepEqual(pm, bm) {
			t.Errorf("slot %d meta: batch %+v, plan %+v", k, bm, pm)
		}
		if got, want := b.Jobs[k].Seed, p.Metas[k].Seed; got != want {
			t.Errorf("slot %d seed: job %d, meta %d", k, got, want)
		}
	}
}

func TestShardSlotsPartition(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 7, 8, 24} {
		for _, count := range []int{1, 2, 3, 5, 9} {
			seen := make(map[int]int)
			for i := 0; i < count; i++ {
				sh := Shard{Index: i, Count: count}
				slots := sh.Slots(jobs)
				if len(slots) != sh.Size(jobs) {
					t.Fatalf("shard %s of %d jobs: Size %d but %d slots", sh, jobs, sh.Size(jobs), len(slots))
				}
				for _, s := range slots {
					seen[s]++
					if s%count != i {
						t.Fatalf("shard %s got slot %d", sh, s)
					}
				}
			}
			if len(seen) != jobs {
				t.Fatalf("count=%d jobs=%d: union covers %d slots", count, jobs, len(seen))
			}
			for s, n := range seen {
				if n != 1 {
					t.Fatalf("count=%d jobs=%d: slot %d owned %d times", count, jobs, s, n)
				}
			}
		}
	}
}

func TestParseShard(t *testing.T) {
	sh, err := ParseShard("2/5")
	if err != nil || sh != (Shard{Index: 2, Count: 5}) {
		t.Fatalf("ParseShard(2/5) = %v, %v", sh, err)
	}
	if sh.String() != "2/5" {
		t.Fatalf("String = %q", sh.String())
	}
	for _, bad := range []string{"", "3", "a/2", "1/b", "-1/2", "2/2", "0/0", "1/-3"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// renderBatch assembles a completed batch's document the way every caller
// of the executor does, each spec's slots through Table.Add, and writes it.
// A failed job or an invalid output fails the test.
func renderBatch(t *testing.T, b *Batch, results []sweep.Result) string {
	t.Helper()
	var tab Table
	base := 0
	for si, p := range b.Plans {
		slots := make([]SlotOutcome, p.Jobs())
		for k := range slots {
			ji, r := base+k, results[base+k]
			if r.Err != nil {
				t.Fatalf("%s: %v", b.Jobs[ji].Label, r.Err)
			}
			if err := b.Check(ji, r.Res.Outputs); err != nil {
				t.Fatalf("%s: invalid output: %v", b.Jobs[ji].Label, err)
			}
			slots[k] = SlotOutcome{Slot: k, Rounds: r.Res.Rounds, Messages: r.Res.Messages}
		}
		if err := tab.Add(p, InfoOf(b.Graphs[si]), slots); err != nil {
			t.Fatal(err)
		}
		base += p.Jobs()
	}
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSectionFromSlotCountMismatch(t *testing.T) {
	p, err := PlanOf(planTestSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SectionFrom(p, GraphInfo{}, make([]SlotOutcome, p.Jobs()-1)); err == nil {
		t.Fatal("short slot set accepted")
	}
}
