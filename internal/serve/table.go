package serve

import (
	"container/list"
	"context"
	"sync"
)

// tableSize bounds the settled executions the table keeps. One execution
// holds every format it serves, so this is 64 (spec, seed) documents or
// shard documents, not 64 bodies.
const tableSize = 64

// X-Localserved-Cache values: how a request found its execution.
const (
	cacheHit       = "hit"       // settled: answered from memory
	cacheCoalesced = "coalesced" // pending: waited on another request's run
	cacheMiss      = "miss"      // absent: this request leads the run
)

// execTable is the one record of POST /run executions, keyed by execution
// identity (seed + canonical spec, plus the shard for a shard request). A
// served document is a pure function of that identity, so an entry is
// either pending — one leader runs it and identical requests wait on it — or
// settled, and a settled outcome answers every later request byte for byte.
// Only settled entries count against tableSize, evicted least recently used
// first. Transient outcomes (429, 499, 504, 5xx) never settle: they leave
// the table and the next request leads. Safe for concurrent use.
type execTable struct {
	mu      sync.Mutex
	entries map[string]*execution // pending and settled
	order   *list.List            // settled only; front = most recently used
	hits    uint64
	misses  uint64
}

// execution is one table entry. The leader writes the outcome fields and
// then calls finish, which closes done; waiters read them only after done
// is closed, and hits only after finding el set under the table's lock.
type execution struct {
	key  string
	done chan struct{}
	el   *list.Element // set under the table's lock once settled

	// status is 200 with md and json filled (json alone, holding the shard
	// document, for a shard execution), or a deterministic client error
	// (400, 422) with msg. Zero means no settled outcome: the run was
	// rejected, canceled or failed.
	status int
	md     []byte
	json   []byte
	msg    string
}

func newExecTable() *execTable {
	return &execTable{entries: make(map[string]*execution), order: list.New()}
}

// acquire returns the execution for key and how it was found: settled
// (cacheHit), pending and now finished (cacheCoalesced), or created for
// this caller (cacheMiss), who must lead it and call finish. A pending
// execution that finishes without settling is looked up again, so exactly
// one of its waiters leads the rerun. acquire fails only when ctx ends
// while waiting.
func (t *execTable) acquire(ctx context.Context, key string) (*execution, string, error) {
	for {
		e, how := t.lookup(key)
		if how != cacheCoalesced {
			return e, how, nil
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
		if e.status != 0 {
			return e, cacheCoalesced, nil
		}
	}
}

func (t *execTable) lookup(key string) (*execution, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		if e.el != nil {
			t.hits++
			t.order.MoveToFront(e.el)
			return e, cacheHit
		}
		t.misses++
		return e, cacheCoalesced
	}
	t.misses++
	e := &execution{key: key, done: make(chan struct{})}
	t.entries[key] = e
	return e, cacheMiss
}

// finish resolves the leader's execution: a recorded outcome settles into
// the LRU, evicting the least recently used settled execution beyond
// tableSize; anything else leaves the table. Waiters wake either way.
func (t *execTable) finish(e *execution) {
	t.mu.Lock()
	if e.status != 0 {
		e.el = t.order.PushFront(e)
		if t.order.Len() > tableSize {
			delete(t.entries, t.order.Remove(t.order.Back()).(*execution).key)
		}
	} else {
		delete(t.entries, e.key)
	}
	t.mu.Unlock()
	close(e.done)
}

func (t *execTable) stats() (hits, misses uint64, settled int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses, t.order.Len()
}
