package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/sweep"
)

// TestSlotsDocMatchesDeterministicDoc pins the one document builder to the
// served bodies: a spec executed as 3 job shards and reassembled through
// scenario.Documents (what the job manager writes to its spool, after a
// resume too) must equal the whole-grid POST /run response byte for byte in
// both formats, localbench's one-shard table must equal the served
// markdown, and DeterministicDoc over an Outcome of the same batch must
// equal the served JSON. If any path gains or scrubs a field, this fails
// before the job-durability CI gate does.
func TestSlotsDocMatchesDeterministicDoc(t *testing.T) {
	body := shardTestSpec()
	spec, err := scenario.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	const seed = int64(3)
	plan, err := scenario.PlanOf(spec, seed-1)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	served := map[string][]byte{}
	for _, format := range []string{"md", "json"} {
		resp, got := postSpec(t, ts.Client(), ts.URL+"/run?seed=3&format="+format, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", format, resp.StatusCode, got)
		}
		served[format] = got
	}

	// Sharded path, exactly as the job manager executes and reassembles.
	exec := s.ShardExecutor()
	const shards = 3
	slots := make([]scenario.SlotOutcome, plan.Jobs())
	filled := make([]bool, plan.Jobs())
	var info scenario.GraphInfo
	for i := 0; i < shards; i++ {
		gi, outs, err := exec(context.Background(), spec, seed, scenario.Shard{Index: i, Count: shards}, nil)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if i == 0 {
			info = gi
		} else if gi != info {
			t.Fatalf("shard %d graph %+v != shard 0 graph %+v", i, gi, info)
		}
		for _, so := range outs {
			if filled[so.Slot] {
				t.Fatalf("slot %d delivered twice", so.Slot)
			}
			filled[so.Slot] = true
			slots[so.Slot] = so
		}
	}
	for i, ok := range filled {
		if !ok {
			t.Fatalf("slot %d never delivered", i)
		}
	}
	md, js, err := scenario.Documents(spec, seed, info, slots)
	if err != nil {
		t.Fatal(err)
	}
	if string(md) != string(served["md"]) {
		t.Errorf("reassembled markdown diverges from the served body:\n got: %s\nwant: %s", md, served["md"])
	}
	if string(js) != string(served["json"]) {
		t.Errorf("reassembled JSON diverges from the served body:\n got: %s\nwant: %s", js, served["json"])
	}

	if md := localbenchMarkdown(t, []*scenario.Spec{spec}, ExecOptions{SeedOffset: seed - 1}); string(md) != string(served["md"]) {
		t.Errorf("localbench's markdown diverges from the served body:\n got: %s\nwant: %s", md, served["md"])
	}

	// DeterministicDoc over an Outcome of the same batch, as perfbench's
	// replay builds one.
	batch, err := scenario.Expand([]*scenario.Spec{spec}, scenario.ExpandOptions{SeedOffset: seed - 1})
	if err != nil {
		t.Fatal(err)
	}
	results, stats := sweep.Run(batch.Jobs, sweep.Options{})
	doc, err := DeterministicDoc(&Outcome{Batch: batch, Results: results, Stats: stats}, seed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(data, '\n')) != string(served["json"]) {
		t.Errorf("DeterministicDoc diverges from the served JSON:\n got: %s\nwant: %s", data, served["json"])
	}
}
