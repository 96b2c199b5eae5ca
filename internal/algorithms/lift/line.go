package lift

import (
	"cmp"
	"slices"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// LineGraph returns an algorithm that simulates algo on the line graph
// L(G) of the host graph. Each edge {u, v} is one virtual node, owned by
// its smaller-identity endpoint and carrying identity
// graph.PackIDs(min, max). One virtual round costs two host rounds (owner →
// shared endpoint → owner).
//
// The host output at every node is a []any with one entry per host port:
// the final output of the virtual node simulating that incident edge.
// Virtual inputs are the virtual identities (InputFn may override this by
// mapping the two endpoint identities to an input).
//
// Every virtual message travels owner → relay → owner, where the relay is
// the host endpoint the two virtual nodes share. The simulation names
// virtual nodes by host ports rather than identities: the relay knows both
// edges as two of its own ports, so routing and delivery are table lookups
// built once in round 1 (see DESIGN.md, "Lift data layout").
func LineGraph(algo local.Algorithm, inputFn func(a, b int64) any) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "line(" + algo.Name() + ")",
		NewNode: func(info local.Info) local.Node {
			return &lineNode{info: info, algo: algo, inputFn: inputFn, hostSeed: int64(info.Rand.Uint64())}
		},
	}
}

// edgeID returns the virtual identity of the edge between identities a, b.
func edgeID(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	return graph.PackIDs(a, b)
}

// lineItem is one virtual message on one host hop. The hop's host port
// names one of the two virtual nodes; at names the other as a port of the
// relay (the shared endpoint s):
//
//   - phase A, owner → s: the sender is the edge the bundle arrived on, and
//     the destination is {s, Neighbors_s[at]};
//   - phase B, s → owner: the destination is the receiver's edge the bundle
//     arrived on, and the sender is {s, Neighbors_s[at]}.
type lineItem struct {
	at      int32
	payload local.Message
}

// lineBundle is everything one host sends over one port in one round. In
// phase A, done announces that the sender's virtual node on this edge
// terminated with output out. Bundles are sent by pointer into the sending
// phase's lineArena.
type lineBundle struct {
	items []lineItem
	done  bool
	out   any
}

// lineArena is the bundle and item storage of one phase. Phase A runs on
// odd host steps and phase B on even ones, so a phase rewrites its arena
// exactly two of this node's steps after sending from it, which the
// message-reuse rule of local.Node allows: every receiver has read the
// bundles, and copied their items out, by then.
type lineArena struct {
	bundles []lineBundle
	items   []lineItem
}

// relayItem is a virtual message this host relays in the next phase B,
// from edge {me, Neighbors[src]} to edge {me, Neighbors[dst]}.
type relayItem struct {
	src, dst int32
	payload  local.Message
}

// lineRoute says where a virtual port's messages go in phase A.
type lineRoute struct {
	// remote: the relay is the other endpoint of the sending edge (send over
	// its host port); otherwise the relay is this host.
	remote bool
	// at is the port, at the relay, of the destination's far endpoint.
	at int32
}

// lineVirtual is one simulated line-graph node: the edge to the neighbour
// on host port p of its owner, stored at owned[p].
type lineVirtual struct {
	node  local.Node // nil: the neighbour owns this edge
	t     int
	done  bool
	fresh bool // terminated this virtual round; announce in this phase A
	// inbox collects the next virtual round's messages by virtual port;
	// spare is the previous round's inbox, cleared before it is reused.
	inbox, spare []local.Message
	route        []lineRoute // by virtual port
	// mine[p'] is the virtual port of edge {me, Neighbors[p']}; theirs[j]
	// that of edge {other, other's Neighbors[j]}; -1 for this edge itself.
	mine, theirs []int32
}

// step runs one virtual round on the accumulated inbox.
func (v *lineVirtual) step() []local.Message {
	in := v.inbox
	clear(v.spare)
	v.inbox, v.spare = v.spare, in
	send, done := v.node.Round(v.t, in)
	v.t++
	if done {
		v.done, v.fresh = true, true
	}
	return send
}

type lineNode struct {
	info     local.Info
	algo     local.Algorithm
	inputFn  func(a, b int64) any
	hostSeed int64

	owned    []lineVirtual // by host port of the other endpoint
	outputs  []any         // by host port
	edgeDone []bool        // by host port
	live     int           // incident edges not yet terminated

	// Per-round scratch, reused: relay holds this host's own phase-A items
	// for its phase B; queue[p] and queued the items bound for port p this
	// round; send is the host send slice; arenas[0] and arenas[1] are the
	// bundle storage of phases A and B.
	relay  []relayItem
	queue  [][]lineItem
	queued int
	send   []local.Message
	arenas [2]lineArena
}

func (n *lineNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	switch {
	case r == 0:
		// Setup: broadcast my incident-edge list (my neighbours' identities).
		n.outputs = make([]any, n.info.Degree)
		n.edgeDone = make([]bool, n.info.Degree)
		n.live = n.info.Degree
		if n.info.Degree == 0 {
			return nil, true
		}
		return local.Broadcast(append([]int64(nil), n.info.Neighbors...), n.info.Degree), false
	case r == 1:
		n.setup(recv)
	}
	if r%2 == 1 {
		return n.phaseA(r, recv), n.live == 0
	}
	return n.phaseB(recv), false
}

// lineKey is one virtual neighbour during setup: its identity and its
// route, which also says whether it is {me, Neighbors[at]} (relay me) or
// {other, other's Neighbors[at]} (relay other).
type lineKey struct {
	id    int64
	route lineRoute
}

// setup builds the virtual nodes owned by this host, with their routing and
// delivery tables, from the neighbour lists received in round 0.
func (n *lineNode) setup(recv []local.Message) {
	me, nbrs := n.info.ID, n.info.Neighbors
	deg := len(nbrs)
	n.owned = make([]lineVirtual, deg)
	n.queue = make([][]lineItem, deg)
	n.send = make([]local.Message, deg)
	var keys []lineKey
	for p, other := range nbrs {
		if me > other {
			continue // the smaller endpoint owns the edge
		}
		otherList, _ := recv[p].([]int64)
		keys = keys[:0]
		for q, w := range nbrs {
			if w != other {
				keys = append(keys, lineKey{id: edgeID(me, w), route: lineRoute{at: int32(q)}})
			}
		}
		for j, w := range otherList {
			if w != me {
				keys = append(keys, lineKey{id: edgeID(other, w), route: lineRoute{remote: true, at: int32(j)}})
			}
		}
		slices.SortFunc(keys, func(a, b lineKey) int { return cmp.Compare(a.id, b.id) })

		k := len(keys)
		ids := make([]int64, k)
		ports := make([]int32, deg+len(otherList))
		for i := range ports {
			ports[i] = -1
		}
		v := &n.owned[p]
		v.mine, v.theirs = ports[:deg:deg], ports[deg:]
		v.route = make([]lineRoute, k)
		for q, key := range keys {
			ids[q], v.route[q] = key.id, key.route
			if key.route.remote {
				v.theirs[key.route.at] = int32(q)
			} else {
				v.mine[key.route.at] = int32(q)
			}
		}
		inboxes := make([]local.Message, 2*k)
		v.inbox, v.spare = inboxes[:k:k], inboxes[k:]

		id := edgeID(me, other)
		var input any = id
		if n.inputFn != nil {
			input = n.inputFn(me, other)
		}
		v.node = n.algo.New(local.Info{
			ID:        id,
			Degree:    k,
			Neighbors: ids,
			Input:     input,
			Rand:      childRand(n.hostSeed, id),
		})
	}
}

// phaseA ingests phase-B deliveries, runs one virtual round on every live
// owned edge and emits bundles toward the relays.
func (n *lineNode) phaseA(r int, recv []local.Message) []local.Message {
	if r > 1 {
		n.ingest(recv)
	}
	for p := range n.owned {
		v := &n.owned[p]
		if v.node == nil || v.done {
			continue
		}
		for q, msg := range v.step() {
			if msg == nil {
				continue
			}
			rt := v.route[q]
			if rt.remote {
				n.enqueue(p, lineItem{at: rt.at, payload: msg})
			} else {
				n.relay = append(n.relay, relayItem{src: int32(p), dst: rt.at, payload: msg})
			}
		}
		if v.done {
			n.recordDone(p, v.node.Output())
		}
	}
	return n.flush(&n.arenas[0])
}

// ingest delivers phase-B bundles: a bundle arriving on port p carries
// messages for the owned edge at p.
func (n *lineNode) ingest(recv []local.Message) {
	for p, m := range recv {
		b, ok := m.(*lineBundle)
		if !ok {
			continue
		}
		v := &n.owned[p]
		if v.node == nil || v.done {
			continue
		}
		for _, it := range b.items {
			if int(it.at) < len(v.theirs) {
				if q := v.theirs[it.at]; q >= 0 {
					v.inbox[q] = it.payload
				}
			}
		}
	}
}

// phaseB relays the items of phase-A bundles and this host's own relay
// items to the owners of their destination edges, delivering directly
// into the edges this host owns, and records the announced terminations.
func (n *lineNode) phaseB(recv []local.Message) []local.Message {
	for p, m := range recv {
		b, ok := m.(*lineBundle)
		if !ok {
			continue
		}
		for _, it := range b.items {
			n.forward(int32(p), it.at, it.payload)
		}
		if b.done {
			n.recordDone(p, b.out)
		}
	}
	for _, it := range n.relay {
		n.forward(it.src, it.dst, it.payload)
	}
	clear(n.relay)
	n.relay = n.relay[:0]
	return n.flush(&n.arenas[1])
}

// forward moves one message from edge {me, Neighbors[src]} to edge
// {me, Neighbors[dst]}: into its inbox if this host owns it, otherwise
// toward its owner over port dst.
func (n *lineNode) forward(src, dst int32, payload local.Message) {
	v := &n.owned[dst]
	if v.node == nil {
		n.enqueue(int(dst), lineItem{at: src, payload: payload})
		return
	}
	if v.done {
		return
	}
	if q := v.mine[src]; q >= 0 {
		v.inbox[q] = payload
	}
}

func (n *lineNode) enqueue(p int, it lineItem) {
	n.queue[p] = append(n.queue[p], it)
	n.queued++
}

// flush packs this round's queues and termination announcements into
// bundles in the phase's arena a. The arena's previous contents were sent
// two steps ago and are dead. They are cleared first, so every bundle
// starts from zero and no slot this round leaves unused pins a payload.
// Capacity only grows.
func (n *lineNode) flush(a *lineArena) []local.Message {
	clear(n.send)
	clear(a.bundles)
	clear(a.items)
	nb := 0
	for p := range n.queue {
		if len(n.queue[p]) > 0 || n.owned[p].fresh {
			nb++
		}
	}
	a.bundles = slices.Grow(a.bundles[:0], nb)[:nb]
	items := slices.Grow(a.items[:0], n.queued)
	next := 0
	for p, q := range n.queue {
		v := &n.owned[p]
		if len(q) == 0 && !v.fresh {
			continue
		}
		b := &a.bundles[next]
		next++
		if len(q) > 0 {
			start := len(items)
			items = append(items, q...)
			b.items = items[start:len(items):len(items)]
			clear(q)
			n.queue[p] = q[:0]
		}
		if v.fresh {
			b.done, b.out = true, n.outputs[p]
			v.fresh = false
		}
		n.send[p] = b
	}
	a.items = items
	n.queued = 0
	return n.send
}

// recordDone marks the incident edge at host port p as finished with
// output out.
func (n *lineNode) recordDone(p int, out any) {
	if n.edgeDone[p] {
		return
	}
	n.edgeDone[p] = true
	n.live--
	n.outputs[p] = out
}

func (n *lineNode) Output() any { return n.outputs }

var _ local.Node = (*lineNode)(nil)
