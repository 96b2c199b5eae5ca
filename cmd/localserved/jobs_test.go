package main

// Lifecycle tests for the durable async job API as mounted by the binary:
// submit over HTTP, drain on SIGTERM, restart on the same spool, coalesce
// the duplicate; plus -fault splitting between the HTTP and shard modes.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startServer runs the binary's run() with the given spool dir and returns
// the base URL plus a shutdown func that drains and waits.
func startServer(t *testing.T, spool string) (string, func()) {
	t.Helper()
	origSpool := *flagSpool
	*flagSpool = spool
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, "127.0.0.1:0", ready) }()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		*flagSpool = origSpool
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		*flagSpool = origSpool
		t.Fatal("server never became ready")
	}
	return base, func() {
		defer func() { *flagSpool = origSpool }()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain failed: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server failed to drain")
		}
	}
}

type submitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Coalesced bool   `json:"coalesced"`
}

func TestJobLifecycleAcrossRestart(t *testing.T) {
	spool := t.TempDir()
	base, shutdown := startServer(t, spool)

	// The synchronous path still answers, for the byte-identity check below.
	resp, err := http.Post(base+"/run", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	runBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run = %d: %s", resp.StatusCode, runBody)
	}

	resp, err = http.Post(base+"/jobs", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.Coalesced || sub.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sub)
	}

	// Poll to done, then the stored markdown must equal the synchronous
	// response byte-for-byte.
	waitDone(t, base, sub.ID)
	resp, err = http.Get(base + "/jobs/" + sub.ID + "/result?format=md")
	if err != nil {
		t.Fatal(err)
	}
	jobBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, jobBody)
	}
	if string(jobBody) != string(runBody) {
		t.Fatalf("async result diverges from synchronous /run:\n got: %s\nwant: %s", jobBody, runBody)
	}
	shutdown()

	// Restart on the same spool: the duplicate coalesces onto the stored
	// result without re-executing.
	base, shutdown = startServer(t, spool)
	defer shutdown()
	resp, err = http.Post(base+"/jobs", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !sub.Coalesced || sub.State != "done" {
		t.Fatalf("restart duplicate: %d %+v", resp.StatusCode, sub)
	}
	resp, err = http.Get(base + "/jobs/" + sub.ID + "/result?format=md")
	if err != nil {
		t.Fatal(err)
	}
	recovered, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(recovered) != string(runBody) {
		t.Fatalf("recovered result diverges:\n got: %s\nwant: %s", recovered, runBody)
	}
}

func waitDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st submitResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s reached %q", id, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobsHonorMaxBody: -max-body bounds POST /jobs exactly as it bounds
// POST /run — a body over it is refused with 413 on both endpoints.
func TestJobsHonorMaxBody(t *testing.T) {
	orig := *flagMaxBodySize
	*flagMaxBodySize = 64
	t.Cleanup(func() { *flagMaxBodySize = orig })
	base, shutdown := startServer(t, t.TempDir())
	defer shutdown()

	if len(smokeSpec) <= 64 {
		t.Fatalf("test spec is only %d bytes", len(smokeSpec))
	}
	for _, path := range []string{"/run", "/jobs"} {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(smokeSpec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body under -max-body 64: %d %s, want 413",
				path, len(smokeSpec), resp.StatusCode, body)
		}
	}
}

func TestSplitFault(t *testing.T) {
	for _, tc := range []struct {
		mode     string
		httpMode string
		shard    int
		wantErr  bool
	}{
		{"", "", 0, false},
		{"exit-after=3", "exit-after=3", 0, false},
		{"exit-after-shard=2", "", 2, false},
		{"exit-after-shard=0", "", 0, true},
		{"exit-after-shard=-1", "", 0, true},
		{"exit-after-shard=x", "", 0, true},
	} {
		httpMode, shard, err := splitFault(tc.mode)
		if tc.wantErr {
			if err == nil {
				t.Errorf("splitFault(%q) accepted", tc.mode)
			}
			continue
		}
		if err != nil || httpMode != tc.httpMode || shard != tc.shard {
			t.Errorf("splitFault(%q) = %q, %d, %v; want %q, %d", tc.mode, httpMode, shard, err, tc.httpMode, tc.shard)
		}
	}
}

// TestShardFaultRequiresSpool: exit-after-shard without a spool is a
// configuration error, not a silently ignored fault.
func TestShardFaultRequiresSpool(t *testing.T) {
	origFault, origSpool := *flagFault, *flagSpool
	*flagFault, *flagSpool = "exit-after-shard=1", ""
	defer func() { *flagFault, *flagSpool = origFault, origSpool }()
	err := run(context.Background(), "127.0.0.1:0", nil)
	if err == nil || !strings.Contains(err.Error(), "requires -spool") {
		t.Fatalf("run without spool: %v", err)
	}
}
