package job

import (
	"context"
	"sync"

	"github.com/unilocal/unilocal/internal/scenario"
)

// Event types, in the order a job's stream can emit them. A stream ends with
// exactly one terminal event (done, failed, canceled) — or drained, which is
// not terminal for the job: the job is still journaled and resumes after
// restart, only this stream is over.
const (
	EventQueued   = "queued"
	EventRunning  = "running"
	EventSlot     = "slot"
	EventShard    = "shard"
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
	EventDrained  = "drained"
)

// Event is one entry in a job's progress stream. Seq is a per-job sequence
// number; a subscriber that reconnects can detect a gap (the hub buffers a
// bounded window, not the whole stream).
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	// Slot carries one completed slot's outcome (EventSlot).
	Slot *scenario.SlotOutcome `json:"slot,omitempty"`
	// ShardsDone / Shards and SlotsDone / Slots are progress counters,
	// stamped on running, shard and terminal events.
	ShardsDone int `json:"shards_done,omitempty"`
	Shards     int `json:"shards,omitempty"`
	SlotsDone  int `json:"slots_done,omitempty"`
	Slots      int `json:"slots,omitempty"`
	// Error is the failure message (EventFailed).
	Error string `json:"error,omitempty"`
}

// hubWindow bounds how many past events a hub retains for late or slow
// subscribers. A job's slot events can outnumber this (grids run to
// thousands of slots); a subscriber that falls behind sees a seq gap, not a
// stalled worker — publishing never blocks on a reader.
const hubWindow = 2048

// hub is one job's event stream: a bounded replay window plus wakeups for
// blocked subscribers. It is pull-based — subscribers poll next() with their
// cursor — so a dead or slow SSE client costs nothing but its own goroutine.
type hub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []Event // events[k] has Seq = start+k
	start  int
	next   int
	closed bool
}

func newHub() *hub {
	h := &hub{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// publish stamps the event's sequence number and appends it to the window.
func (h *hub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	e.Seq = h.next
	h.next++
	h.events = append(h.events, e)
	if len(h.events) > hubWindow {
		drop := len(h.events) - hubWindow
		h.events = append(h.events[:0], h.events[drop:]...)
		h.start += drop
	}
	h.cond.Broadcast()
}

// close ends the stream; blocked subscribers drain what remains and stop.
func (h *hub) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

// nextEvents blocks until events past cursor exist (or the hub closes or ctx
// fires), then returns them with the advanced cursor. A cursor older than
// the retained window snaps forward — the subscriber observes the seq gap.
// done is true once the stream is over and fully drained.
func (h *hub) nextEvents(ctx context.Context, cursor int) (evs []Event, newCursor int, done bool) {
	stop := context.AfterFunc(ctx, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for cursor >= h.next && !h.closed && ctx.Err() == nil {
		h.cond.Wait()
	}
	if ctx.Err() != nil {
		return nil, cursor, true
	}
	if cursor < h.start {
		cursor = h.start
	}
	evs = append(evs, h.events[cursor-h.start:]...)
	return evs, h.next, h.closed
}
