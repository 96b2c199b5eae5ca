package lift

// legacyLineGraph is the map-based line-graph lift, frozen verbatim (modulo
// renaming) as a differential-testing oracle for LineGraph and a baseline
// for BenchmarkLineLift: every host round it rebuilds the outgoing,
// doneByOther and buffered maps keyed by endpoint identity, picks each
// item's relay by unpacking the destination identity, delivers through a
// map lookup plus a binary search of the virtual neighbour list, allocates
// a fresh inbox per virtual round and a fresh send slice per host round,
// and tracks terminated edges in a map.

import (
	"sort"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// legacyLineGraph returns an algorithm that simulates algo on the line graph
// L(G) of the host graph. Each edge {u, v} is one virtual node, owned by
// its smaller-identity endpoint and carrying identity
// graph.PackIDs(min, max). One virtual round costs two host rounds (owner →
// shared endpoint → owner).
//
// The host output at every node is a []any with one entry per host port:
// the final output of the virtual node simulating that incident edge.
// Virtual inputs are the virtual identities (InputFn may override this by
// mapping the two endpoint identities to an input).
func legacyLineGraph(algo local.Algorithm, inputFn func(a, b int64) any) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "line(" + algo.Name() + ")",
		NewNode: func(info local.Info) local.Node {
			return &legacyLineNode{info: info, algo: algo, inputFn: inputFn, hostSeed: int64(info.Rand.Uint64())}
		},
	}
}

// legacyEdgeID returns the virtual identity of the edge between identities a, b.
func legacyEdgeID(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	return graph.PackIDs(a, b)
}

// legacyLineItem is one virtual message in flight: from virtual node src to
// virtual node dst.
type legacyLineItem struct {
	src, dst int64
	payload  local.Message
}

// legacyLineBundle travels one host hop. Direction A: owner → other endpoint
// (also carrying the owner's owned-edge status flags). Direction B: shared
// endpoint → owner of the destination edge.
type legacyLineBundle struct {
	items []legacyLineItem
	// doneEdges lists virtual nodes (owned by the sender) that have
	// terminated, with their final outputs.
	doneEdges []legacyLineDone
}

type legacyLineDone struct {
	edge int64
	out  any
}

// legacyLineVirtual is one simulated line-graph node.
type legacyLineVirtual struct {
	id    int64   // packed edge identity
	other int64   // the non-owner endpoint identity
	nbrs  []int64 // virtual neighbour identities, sorted
	node  local.Node
	t     int
	done  bool
	out   any
	inbox []local.Message // by virtual port, for the next virtual round
}

// step runs one virtual round on the accumulated inbox.
func (v *legacyLineVirtual) step() []local.Message {
	inbox := v.inbox
	v.inbox = make([]local.Message, len(v.nbrs))
	send, done := v.node.Round(v.t, inbox)
	v.t++
	if done {
		v.done = true
		v.out = v.node.Output()
	}
	return send
}

type legacyLineNode struct {
	info     local.Info
	algo     local.Algorithm
	inputFn  func(a, b int64) any
	hostSeed int64

	owned    map[int64]*legacyLineVirtual // edges this host owns
	edgeDone map[int64]bool               // incident edges that terminated
	outputs  []any                        // by host port
	buffered map[int64][]legacyLineItem   // phase-B items to forward, by shared endpoint = me
}

func (n *legacyLineNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	switch {
	case r == 0:
		// Setup: broadcast my incident-edge list (my neighbours' identities).
		n.outputs = make([]any, n.info.Degree)
		n.edgeDone = make(map[int64]bool, n.info.Degree)
		if n.info.Degree == 0 {
			return nil, true
		}
		return local.Broadcast(append([]int64(nil), n.info.Neighbors...), n.info.Degree), false
	case r == 1:
		n.setup(recv)
		fallthrough
	default:
	}
	if (r-1)%2 == 0 {
		return n.phaseA(r, recv), n.allDone()
	}
	return n.phaseB(recv), false
}

// setup builds the virtual nodes owned by this host from the neighbour
// lists received in round 0.
func (n *legacyLineNode) setup(recv []local.Message) {
	me := n.info.ID
	n.owned = make(map[int64]*legacyLineVirtual)
	n.buffered = make(map[int64][]legacyLineItem)
	for p, other := range n.info.Neighbors {
		if me > other {
			continue // the smaller endpoint owns the edge
		}
		otherList, _ := recv[p].([]int64)
		v := &legacyLineVirtual{id: legacyEdgeID(me, other), other: other}
		for _, w := range n.info.Neighbors {
			if w != other {
				v.nbrs = append(v.nbrs, legacyEdgeID(me, w))
			}
		}
		for _, w := range otherList {
			if w != me {
				v.nbrs = append(v.nbrs, legacyEdgeID(other, w))
			}
		}
		sortIDs(v.nbrs)
		var input any = v.id
		if n.inputFn != nil {
			input = n.inputFn(me, other)
		}
		info := local.Info{
			ID:        v.id,
			Degree:    len(v.nbrs),
			Neighbors: append([]int64(nil), v.nbrs...),
			Input:     input,
			Rand:      childRand(n.hostSeed, v.id),
		}
		v.node = n.algo.New(info)
		v.inbox = make([]local.Message, len(v.nbrs))
		n.owned[v.id] = v
	}
}

// phaseA ingests phase-B deliveries, runs one virtual round on every live
// owned edge and emits bundles toward the shared endpoints.
func (n *legacyLineNode) phaseA(r int, recv []local.Message) []local.Message {
	if r > 1 {
		n.ingest(recv)
	}
	outgoing := make(map[int64][]legacyLineItem) // by endpoint identity to route via
	doneByOther := make(map[int64][]legacyLineDone)
	for _, v := range n.owned {
		if v.done {
			continue
		}
		send := v.step()
		for q, msg := range send {
			if msg == nil {
				continue
			}
			dst := v.nbrs[q]
			// The shared endpoint of v.id and dst is the endpoint of v that
			// is also an endpoint of dst.
			a, b := graph.UnpackIDs(dst)
			var via int64
			if a == n.info.ID || b == n.info.ID {
				via = n.info.ID
			} else {
				via = v.other
			}
			item := legacyLineItem{src: v.id, dst: dst, payload: msg}
			if via == n.info.ID {
				n.buffered[via] = append(n.buffered[via], item)
			} else {
				outgoing[via] = append(outgoing[via], item)
			}
		}
		if v.done {
			// Announce termination with the final output to both endpoints.
			out := legacyLineDone{edge: v.id, out: v.out}
			n.recordDone(out)
			doneByOther[v.other] = append(doneByOther[v.other], out)
		}
	}
	send := make([]local.Message, n.info.Degree)
	for p, other := range n.info.Neighbors {
		items := outgoing[other]
		dones := doneByOther[other]
		if len(items) > 0 || len(dones) > 0 {
			send[p] = legacyLineBundle{items: items, doneEdges: dones}
		}
	}
	return send
}

// phaseB forwards buffered items to the owners of their destination edges
// and delivers locally owned destinations.
func (n *legacyLineNode) phaseB(recv []local.Message) []local.Message {
	for _, m := range recv {
		if b, ok := m.(legacyLineBundle); ok {
			n.buffered[n.info.ID] = append(n.buffered[n.info.ID], b.items...)
			for _, d := range b.doneEdges {
				n.recordDone(d)
			}
		}
	}
	outgoing := make(map[int64][]legacyLineItem)
	for _, item := range n.buffered[n.info.ID] {
		owner, _ := graph.UnpackIDs(item.dst) // the smaller endpoint owns
		if owner == n.info.ID {
			n.deliver(item)
			continue
		}
		// I am the other endpoint of dst, so its owner is my host neighbour.
		outgoing[owner] = append(outgoing[owner], item)
	}
	delete(n.buffered, n.info.ID)
	send := make([]local.Message, n.info.Degree)
	for p, other := range n.info.Neighbors {
		if items := outgoing[other]; len(items) > 0 {
			send[p] = legacyLineBundle{items: items}
		}
	}
	return send
}

// deliver places an item into the inbox of a locally owned virtual node.
func (n *legacyLineNode) deliver(item legacyLineItem) {
	v := n.owned[item.dst]
	if v == nil || v.done {
		return
	}
	if q := portOf(v.nbrs, item.src); q >= 0 {
		v.inbox[q] = item.payload
	}
}

// ingest consumes phase-B deliveries addressed to owned edges.
func (n *legacyLineNode) ingest(recv []local.Message) {
	for _, m := range recv {
		b, ok := m.(legacyLineBundle)
		if !ok {
			continue
		}
		for _, item := range b.items {
			n.deliver(item)
		}
		for _, d := range b.doneEdges {
			n.recordDone(d)
		}
	}
}

// recordDone marks an incident edge as finished and stores its output under
// the matching host port.
func (n *legacyLineNode) recordDone(d legacyLineDone) {
	if n.edgeDone[d.edge] {
		return
	}
	n.edgeDone[d.edge] = true
	a, b := graph.UnpackIDs(d.edge)
	other := a
	if a == n.info.ID {
		other = b
	}
	if p := n.info.NeighborPort(other); p >= 0 {
		n.outputs[p] = d.out
	}
}

// allDone reports whether every incident edge has terminated.
func (n *legacyLineNode) allDone() bool {
	return len(n.edgeDone) == n.info.Degree
}

func (n *legacyLineNode) Output() any { return n.outputs }

var _ local.Node = (*legacyLineNode)(nil)

// portOf returns the index of id in the sorted identity slice, or -1.
func portOf(ids []int64, id int64) int {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return i
	}
	return -1
}

func sortIDs(ids []int64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
