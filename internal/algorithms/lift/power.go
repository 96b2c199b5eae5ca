package lift

import (
	"fmt"
	"slices"

	"github.com/unilocal/unilocal/internal/local"
)

// Power returns an algorithm that simulates algo on the k-th power G^k of
// the host graph: every node simulates itself with the nodes at distance at
// most k as virtual neighbours. One virtual round costs k host rounds
// (flooding with hop budget k); setup costs k rounds to discover the ball.
//
// Host inputs, identities, randomness and outputs pass through unchanged.
//
// After discovery the simulation names ball members by their position in
// the sorted ball, so seen-marks, inbox and termination flags are indexed
// tables built once, and flood records point at their originator's payload
// buffer instead of copying it (see DESIGN.md, "Lift data layout").
func Power(k int, algo local.Algorithm) local.Algorithm {
	if k < 1 {
		k = 1
	}
	return local.AlgorithmFunc{
		AlgoName: fmt.Sprintf("power%d(%s)", k, algo.Name()),
		NewNode: func(info local.Info) local.Node {
			return &powerNode{info: info, k: k, algo: algo}
		},
	}
}

// powerPayload is one virtual round's messages of a node: msgs[q] is for
// ball[q]. Each node owns two, used by virtual-round parity. Records relay
// a pointer to it for up to k host steps, so by the multi-hop corollary of
// the message-reuse rule (local.Node) its owner may rewrite it 2k of its
// steps later, which is exactly when the same parity comes round again.
type powerPayload struct {
	ball []int64 // the owner's ball, sorted; shared and immutable
	msgs []local.Message
}

// powerRecord is one node's contribution to a flood wave. Records are
// copied by value from flood to flood, and out is shared by every copy:
// receivers up to k hops away read it, which the multi-hop corollary of
// the message-reuse rule (local.Node, internal/local/local.go) allows
// until its owner's step 2k after writing it.
type powerRecord struct {
	src  int64
	out  *powerPayload // nil: no messages this virtual round
	hops int32         // remaining hop budget
	done bool
}

// powerFlood is everything a node floods in one host step, sent by pointer
// to every port. Each node owns two, used by host-step parity, so a flood
// is rewritten two of its owner's steps after it was sent, as the
// message-reuse rule of local.Node allows.
type powerFlood struct {
	records []powerRecord
}

type powerNode struct {
	info local.Info
	k    int
	algo local.Algorithm

	// ball holds the identities within distance k, sorted (virtual ports).
	// During discovery it is the sorted set of identities found so far,
	// this node's own included.
	ball    []int64
	sim     local.Node
	t       int // virtual round counter
	simDone bool
	out     any

	// Tables by ball position: seen[q] is the last wave whose record from
	// ball[q] this node extracted; inbox accumulates the next virtual
	// round's deliveries and is the simulated node's recv; done marks
	// terminated ball members, and live counts the others.
	wave  int32
	seen  []int32
	inbox []local.Message
	done  []bool
	live  int

	payloads [2]*powerPayload // by virtual-round parity
	floods   [2]*powerFlood   // by host-step parity
	send     []local.Message
}

func (n *powerNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if r < n.k {
		return n.discover(r, recv), false
	}
	if r == n.k {
		n.finishDiscovery(recv)
	}
	phase := (r - n.k) % n.k
	var send []local.Message
	if phase == 0 {
		if r > n.k {
			// The previous wave's last records arrive with no hops left, so
			// forwarding them only extracts them.
			n.forward(r, recv)
		}
		send = n.stepAndFlood(r)
	} else {
		send = n.forward(r, recv)
	}
	// Termination is only safe on a phase boundary, after this node's final
	// flood has fully propagated through the ball. With k = 1 there are no
	// forwarding phases; a node may stop once it and its whole ball have
	// terminated (its own done flag was flooded the moment it terminated).
	if phase == n.k-1 && n.simDone && n.live == 0 {
		n.release()
		return send, true
	}
	return send, false
}

// discover floods identity lists for k rounds to learn the ball.
func (n *powerNode) discover(r int, recv []local.Message) []local.Message {
	if r == 0 {
		n.ball = []int64{n.info.ID}
		n.send = make([]local.Message, n.info.Degree)
		return n.broadcast([]int64{n.info.ID})
	}
	if fresh := n.learn(recv); len(fresh) > 0 {
		return n.broadcast(fresh)
	}
	return nil
}

// learn merges the received identity lists into the sorted ball and
// returns the identities it had not known, sorted.
func (n *powerNode) learn(recv []local.Message) []int64 {
	var fresh []int64
	for _, m := range recv {
		ids, _ := m.([]int64)
		for _, id := range ids {
			if _, ok := slices.BinarySearch(n.ball, id); !ok {
				fresh = append(fresh, id)
			}
		}
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	n.ball = append(n.ball, fresh...)
	slices.Sort(n.ball)
	return fresh
}

// finishDiscovery ingests the final discovery wave, builds the tables and
// instantiates the simulated node on the ball.
func (n *powerNode) finishDiscovery(recv []local.Message) {
	n.learn(recv)
	self, _ := slices.BinarySearch(n.ball, n.info.ID)
	n.ball = slices.Delete(n.ball, self, self+1)
	b := len(n.ball)
	n.seen = make([]int32, b)
	n.done = make([]bool, b)
	n.live = b
	msgs := make([]local.Message, 3*b)
	n.inbox = msgs[:b:b]
	n.payloads = [2]*powerPayload{
		{ball: n.ball, msgs: msgs[b : 2*b : 2*b]},
		{ball: n.ball, msgs: msgs[2*b:]},
	}
	n.floods = [2]*powerFlood{{}, {}}
	n.sim = n.algo.New(local.Info{
		ID:        n.info.ID,
		Degree:    b,
		Neighbors: n.ball,
		Input:     n.info.Input,
		Rand:      n.info.Rand,
	})
}

// stepAndFlood runs one virtual round and starts this node's flood wave.
func (n *powerNode) stepAndFlood(r int) []local.Message {
	n.wave++
	rec := powerRecord{src: n.info.ID, hops: int32(n.k - 1), done: true}
	if !n.simDone {
		send, done := n.sim.Round(n.t, n.inbox)
		out := n.payloads[n.t&1]
		n.t++
		clear(out.msgs)
		for q, msg := range send {
			if msg != nil {
				out.msgs[q] = msg
				rec.out = out
			}
		}
		clear(n.inbox)
		rec.done = done
		if done {
			n.simDone = true
			n.out = n.sim.Output()
		}
	}
	f := n.flood(r)
	f.records = append(f.records, rec)
	return n.broadcast(f)
}

// forward relays unseen records with decremented hop budgets and extracts
// deliveries addressed to this node.
func (n *powerNode) forward(r int, recv []local.Message) []local.Message {
	f := n.flood(r)
	for _, m := range recv {
		in, ok := m.(*powerFlood)
		if !ok {
			continue
		}
		for _, rec := range in.records {
			if n.extract(rec) && rec.hops > 0 {
				rec.hops--
				f.records = append(f.records, rec)
			}
		}
	}
	if len(f.records) == 0 {
		return nil
	}
	return n.broadcast(f)
}

// extract records the delivery and done flag rec carries for this node,
// unless a record of the same wave from the same source came first, and
// reports whether it did. Every record of one wave from one source carries
// the same payload and flag, so later copies change nothing. This node's
// own records are never extracted.
func (n *powerNode) extract(rec powerRecord) bool {
	q := indexOf(n.ball, rec.src)
	if q < 0 || n.seen[q] == n.wave {
		return false
	}
	n.seen[q] = n.wave
	if rec.done && !n.done[q] {
		n.done[q] = true
		n.live--
	}
	if rec.out != nil && !n.simDone {
		if i := indexOf(rec.out.ball, n.info.ID); i >= 0 && rec.out.msgs[i] != nil {
			n.inbox[q] = rec.out.msgs[i]
		}
	}
	return true
}

// indexOf returns the position of id in the sorted ids, or -1. The search
// halves the range without a data-dependent branch.
func indexOf(ids []int64, id int64) int {
	if len(ids) == 0 {
		return -1
	}
	lo, n := 0, len(ids)
	for n > 1 {
		half := n / 2
		if ids[lo+half] <= id {
			lo += half
		}
		n -= half
	}
	if ids[lo] != id {
		return -1
	}
	return lo
}

// flood returns this host step's flood, emptied: it was sent two steps ago
// and is dead. Clearing drops the payload pointers of its old records.
func (n *powerNode) flood(r int) *powerFlood {
	f := n.floods[r&1]
	clear(f.records)
	f.records = f.records[:0]
	return f
}

// broadcast sends msg to every port through the reused send slice.
func (n *powerNode) broadcast(msg local.Message) []local.Message {
	if len(n.send) == 0 {
		return nil
	}
	for p := range n.send {
		n.send[p] = msg
	}
	return n.send
}

// release drops everything but the output once the node terminates, so the
// engine's state table does not pin its ball and buffers for the rest of
// the run. It only drops references: the final flood and payload stay
// intact for the receivers still reading them.
func (n *powerNode) release() {
	n.ball, n.sim, n.seen, n.inbox, n.done, n.send = nil, nil, nil, nil, nil, nil
	n.payloads, n.floods = [2]*powerPayload{}, [2]*powerFlood{}
}

func (n *powerNode) Output() any { return n.out }

var _ local.Node = (*powerNode)(nil)
