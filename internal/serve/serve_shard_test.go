package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/scenario"
)

// shardTestSpec is a 12-job grid (2 algorithms × 3 seeds × repeat 2) with a
// ratio column, so the shard partition splits baseline/uniform pairs across
// different shards — exactly the case that forces ratios to be computed from
// merged slots rather than within one response.
func shardTestSpec() []byte {
	return []byte(`{
  "name": "shard-probe",
  "description": "Sharded serving-layer probe.",
  "graph": {"family": "cycle", "n": 96},
  "ids": {"regime": "dense", "seed": 5},
  "algorithm": {"name": "uniform-mis-delta"},
  "baseline": {"name": "nonuniform-mis-delta"},
  "seeds": [1, 2, 3],
  "repeat": 2
}`)
}

// TestServeShardMergeMatchesFullDocument is the serve-layer half of the
// distributed determinism contract: fetching every shard of a spec
// separately and rebuilding the document from the merged slot outcomes (as
// the fabric coordinator does) is byte-identical to the server's own
// whole-grid markdown response.
func TestServeShardMergeMatchesFullDocument(t *testing.T) {
	specJSON := shardTestSpec()
	spec, err := scenario.Parse(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scenario.PlanOf(spec, 0)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	resp, want := postSpec(t, ts.Client(), ts.URL+"/run", specJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full request: status %d: %s", resp.StatusCode, want)
	}

	const shards = 3
	slots := make([]scenario.SlotOutcome, plan.Jobs())
	filled := make([]bool, plan.Jobs())
	var info scenario.GraphInfo
	for i := 0; i < shards; i++ {
		sh := scenario.Shard{Index: i, Count: shards}
		resp, body := postSpec(t, ts.Client(), fmt.Sprintf("%s/run?shard=%s", ts.URL, sh), specJSON)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %s: status %d: %s", sh, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("shard %s: content type %q", sh, ct)
		}
		var doc ShardDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("shard %s: decoding: %v", sh, err)
		}
		if err := doc.Validate(spec.Name, 1, sh, plan.Jobs()); err != nil {
			t.Fatalf("shard %s: %v", sh, err)
		}
		if i == 0 {
			info = doc.Graph
		} else if doc.Graph != info {
			t.Fatalf("shard %s reports graph %+v, shard 0/%d reported %+v", sh, doc.Graph, shards, info)
		}
		for _, so := range doc.Slots {
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

	sec, err := scenario.SectionFrom(plan, info, slots)
	if err != nil {
		t.Fatal(err)
	}
	tab := &scenario.Table{Jobs: plan.Jobs(), Sections: []scenario.Section{sec}}
	var got bytes.Buffer
	if err := tab.Write(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("merged shard document diverges from whole-grid response:\n got: %s\nwant: %s", got.Bytes(), want)
	}
}

func TestServeShardBadRequests(t *testing.T) {
	good := shardTestSpec()
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	for _, tc := range []struct{ name, query string }{
		{"index out of range", "shard=3/3"},
		{"malformed", "shard=abc"},
		{"negative", "shard=-1/2"},
		{"zero count", "shard=0/0"},
		{"shard with format", "shard=0/2&format=json"},
	} {
		resp, body := postSpec(t, ts.Client(), ts.URL+"/run?"+tc.query, good)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
	}
}

// TestServeShardJobLimit pins the per-shard work bound: a grid too large
// for one request is still servable split across enough shards, because
// admission charges a shard only for its own share of the slots.
func TestServeShardJobLimit(t *testing.T) {
	spec := shardTestSpec() // 12 jobs
	ts := httptest.NewServer(New(Config{MaxJobs: 4}))
	defer ts.Close()

	resp, body := postSpec(t, ts.Client(), ts.URL+"/run", spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("whole grid over MaxJobs: status %d, want 400: %s", resp.StatusCode, body)
	}
	resp, body = postSpec(t, ts.Client(), ts.URL+"/run?shard=0/3", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("4-job shard of a 12-job grid: status %d, want 200: %s", resp.StatusCode, body)
	}
	// A shard whose share still exceeds the bound is refused.
	resp, body = postSpec(t, ts.Client(), ts.URL+"/run?shard=0/2", spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("6-job shard: status %d, want 400: %s", resp.StatusCode, body)
	}
}

func TestServeShardCacheKeys(t *testing.T) {
	spec := shardTestSpec()
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	resp, first := postSpec(t, ts.Client(), ts.URL+"/run?shard=0/2", spec)
	if got := resp.Header.Get("X-Localserved-Cache"); got != "miss" {
		t.Fatalf("first shard request: cache header %q", got)
	}
	resp, second := postSpec(t, ts.Client(), ts.URL+"/run?shard=0/2", spec)
	if got := resp.Header.Get("X-Localserved-Cache"); got != "hit" {
		t.Fatalf("repeated shard request: cache header %q", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached shard body differs from computed body")
	}
	resp, _ = postSpec(t, ts.Client(), ts.URL+"/run?shard=1/2", spec)
	if got := resp.Header.Get("X-Localserved-Cache"); got != "miss" {
		t.Fatalf("distinct shard served from cache: %q", got)
	}
}

// TestServeBusyResponse pins the 429 contract remote backoff depends on:
// Retry-After header plus the admission gauges in a JSON body.
func TestServeBusyResponse(t *testing.T) {
	req := readTestdata(t, "mis_request.json")
	s := New(Config{MaxInFlight: 1, QueueDepth: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()
	resp, body := postSpec(t, ts.Client(), ts.URL+"/run", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1 (empty queue)", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var gauges struct {
		Error      string `json:"error"`
		InFlight   int    `json:"in_flight"`
		Queued     int    `json:"queued"`
		MaxInFl    int    `json:"max_in_flight"`
		QueueDepth int    `json:"queue_depth"`
		RetrySecs  int    `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(body, &gauges); err != nil {
		t.Fatalf("429 body is not JSON: %v\n%s", err, body)
	}
	if !strings.Contains(gauges.Error, "not admitted") || gauges.MaxInFl != 1 || gauges.RetrySecs != 1 {
		t.Fatalf("429 gauges off: %+v", gauges)
	}
}

// TestExecuteShardMultiSpec pins the multi-spec executor cmd/localbench
// runs: for every shard, one call over two specs of different grid sizes
// returns per spec exactly the document a one-spec call returns. The
// marshalled slots carry only their deterministic keys, while the slots
// themselves carry the measurements.
func TestExecuteShardMultiSpec(t *testing.T) {
	probe, err := scenario.Parse(shardTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	luby, err := scenario.Parse([]byte(`{
  "name": "shard-luby",
  "graph": {"family": "gnp", "n": 64, "p": 0.1},
  "algorithm": {"name": "luby-mis"},
  "seeds": [4, 5]
}`))
	if err != nil {
		t.Fatal(err)
	}
	specs := []*scenario.Spec{probe, luby}
	marshal := func(d *ShardDoc) string {
		t.Helper()
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, sh := range []scenario.Shard{{Index: 0, Count: 1}, {Index: 0, Count: 3}, {Index: 1, Count: 3}, {Index: 2, Count: 3}} {
		docs, _, err := ExecuteShard(specs, sh, ExecOptions{Parallel: 2})
		if err != nil {
			t.Fatalf("shard %s: %v", sh, err)
		}
		if len(docs) != len(specs) {
			t.Fatalf("shard %s: %d documents for %d specs", sh, len(docs), len(specs))
		}
		for si, spec := range specs {
			one, _, err := ExecuteShard([]*scenario.Spec{spec}, sh, ExecOptions{Parallel: 1})
			if err != nil {
				t.Fatalf("shard %s, %s alone: %v", sh, spec.Name, err)
			}
			got := marshal(docs[si])
			if want := marshal(one[0]); got != want {
				t.Errorf("shard %s, %s: multi-spec document\n%s\ndiffers from the one-spec document\n%s", sh, spec.Name, got, want)
			}
			var wire struct{ Slots []map[string]any }
			if err := json.Unmarshal([]byte(got), &wire); err != nil {
				t.Fatal(err)
			}
			for _, slot := range wire.Slots {
				if len(slot) != 3 || slot["slot"] == nil || slot["rounds"] == nil || slot["messages"] == nil {
					t.Errorf("shard %s, %s: marshalled slot %v, want exactly slot, rounds and messages", sh, spec.Name, slot)
				}
			}
			if sh.Count != 1 {
				continue
			}
			for _, slot := range docs[si].Slots {
				if slot.Steps <= 0 || slot.Wall <= 0 {
					t.Errorf("shard %s, %s: slot %d carries steps %d, wall %v; want both measured", sh, spec.Name, slot.Slot, slot.Steps, slot.Wall)
				}
			}
		}
	}
}
