package lift

import (
	"cmp"
	"slices"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// Product returns an algorithm that simulates algo on the clique product
// G × K_{deg+1} of Section 5.1 of the paper: every host node simulates
// deg+1 copies of itself; copies of one node form a clique, and copy i of u
// is adjacent to copy i of each neighbour v with i <= 1 + min(deg u,
// deg v). One virtual round costs one host round; setup costs one round to
// exchange degrees.
//
// Copy i of host u carries identity graph.PackIDs(Id(u), i), matching
// graphtest.ProductDegPlusOne. The host output is a []any with the outputs of
// copies 1..deg+1 in order.
//
// Routing and delivery are tables built once at setup: a virtual port is
// either a sibling copy or a host port, so no identity is unpacked or
// searched after setup (see DESIGN.md, "Lift data layout").
func Product(algo local.Algorithm) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "product(" + algo.Name() + ")",
		NewNode: func(info local.Info) local.Node {
			return &productNode{info: info, algo: algo, hostSeed: int64(info.Rand.Uint64())}
		},
	}
}

// productBundle carries, for one host edge (u, v), the messages of all
// copies u_i to their counterparts v_i, plus termination flags. Bundles
// live in the sending host step's productArena and are sent by pointer, so
// they are rewritten two of the sender's steps later, as the message-reuse
// rule in the local.Node contract (internal/local/local.go) allows.
type productBundle struct {
	// byCopy[i-1] is the message from copy i of the sender to copy i of the
	// receiver (nil = silence).
	byCopy []local.Message
	// doneAll reports that every copy of the sender has terminated.
	doneAll bool
}

// productArena is the bundle storage of one host-step parity: one bundle
// per port, whose byCopy rows are slices of one flat array. A host step
// rewrites its parity's arena two of its steps after sending from it.
type productArena struct {
	bundles []productBundle
	rows    []local.Message
}

// productRoute says where a virtual port's messages go: to sibling copy
// sibling (0-based) at its virtual port at, or, with sibling = -1, over
// host port at to the same copy of that neighbour.
type productRoute struct {
	sibling, at int32
}

// productVirtual is one simulated copy.
type productVirtual struct {
	node local.Node
	t    int
	done bool
	out  any
	// inbox collects the next virtual round's messages by virtual port;
	// spare is the previous round's inbox, cleared before it is reused.
	inbox, spare []local.Message
	route        []productRoute // by virtual port
	// fromPort[p] is the virtual port of the same copy of the neighbour on
	// host port p, or -1 when the two copies are not adjacent.
	fromPort []int32
}

type productNode struct {
	info     local.Info
	algo     local.Algorithm
	hostSeed int64

	copies   []productVirtual // copy i at copies[i-1]
	crossLim []int            // crossLim[p] = 1+min(deg, deg of neighbour p)
	nbrDone  []bool
	nbrLive  int // neighbours not known to have terminated
	live     int // copies not yet terminated

	arenas [2]*productArena // by host-step parity
	send   []local.Message
}

func (n *productNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if r == 0 {
		return local.Broadcast(n.info.Degree, n.info.Degree), false
	}
	if r == 1 {
		n.setup(recv)
	} else {
		n.ingest(recv)
	}
	send := n.stepAll(n.arenas[r&1])
	// Once every copy has terminated, keep pulsing the done flag until the
	// neighbourhood has finished, so late neighbours still learn it.
	if n.live == 0 && n.nbrLive == 0 {
		n.release()
		return send, true
	}
	return send, false
}

// setup exchanges degrees, instantiates the copies and builds their routing
// and delivery tables.
//
// PackIDs orders identities lexicographically, so every copy's sorted
// neighbour list is the host neighbours in identity order, filtered by
// crossLim, with the clique siblings as one block where this node's own
// identity falls. Copy j then sits at position base[i]+j (j < i) or
// base[i]+j-1 (j > i) of copy i's list, where base[i] counts copy i's
// cross neighbours of smaller identity.
func (n *productNode) setup(recv []local.Message) {
	me, nbrs, deg := n.info.ID, n.info.Neighbors, n.info.Degree
	c := deg + 1
	n.crossLim = make([]int, deg)
	n.nbrDone = make([]bool, deg)
	n.nbrLive = deg
	order := make([]int32, deg) // host ports in neighbour-identity order
	for p := range order {
		nbDeg, _ := recv[p].(int)
		n.crossLim[p] = min(deg, nbDeg) + 1
		order[p] = int32(p)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(nbrs[a], nbrs[b]) })
	below, _ := slices.BinarySearchFunc(order, me, func(p int32, id int64) int { return cmp.Compare(nbrs[p], id) })
	base := make([]int32, c)
	total := c * deg // clique siblings
	for x, p := range order {
		total += n.crossLim[p]
		if x < below {
			for i := range n.crossLim[p] {
				base[i]++
			}
		}
	}
	ids := make([]int64, total)
	routes := make([]productRoute, total)
	inboxes := make([]local.Message, 2*total)
	fromPort := make([]int32, c*deg)
	n.copies = make([]productVirtual, c)
	next := 0
	for i := range n.copies {
		v := &n.copies[i]
		v.fromPort = fromPort[i*deg : (i+1)*deg : (i+1)*deg]
		for p := range v.fromPort {
			v.fromPort[p] = -1
		}
		start := next
		cross := func(ports []int32) {
			for _, p := range ports {
				if i < n.crossLim[p] {
					ids[next] = graph.PackIDs(nbrs[p], int64(i+1))
					routes[next] = productRoute{sibling: -1, at: p}
					v.fromPort[p] = int32(next - start)
					next++
				}
			}
		}
		cross(order[:below])
		for j := range c {
			if j == i {
				continue
			}
			at := base[j] + int32(i)
			if i > j {
				at--
			}
			ids[next] = graph.PackIDs(me, int64(j+1))
			routes[next] = productRoute{sibling: int32(j), at: at}
			next++
		}
		cross(order[below:])

		k := next - start
		v.route = routes[start:next:next]
		v.inbox = inboxes[2*start : 2*start+k : 2*start+k]
		v.spare = inboxes[2*start+k : 2*next : 2*next]
		vid := graph.PackIDs(me, int64(i+1))
		v.node = n.algo.New(local.Info{
			ID:        vid,
			Degree:    k,
			Neighbors: ids[start:next:next],
			Input:     n.info.Input,
			Rand:      childRand(n.hostSeed, vid),
		})
	}
	n.live = c
	for a := range n.arenas {
		arena := &productArena{bundles: make([]productBundle, deg), rows: make([]local.Message, deg*c)}
		for p := range arena.bundles {
			arena.bundles[p].byCopy = arena.rows[p*c : (p+1)*c : (p+1)*c]
		}
		n.arenas[a] = arena
	}
	n.send = make([]local.Message, deg)
}

// ingest delivers received cross messages into copy inboxes.
func (n *productNode) ingest(recv []local.Message) {
	for p, m := range recv {
		b, ok := m.(*productBundle)
		if !ok {
			continue
		}
		if b.doneAll && !n.nbrDone[p] {
			n.nbrDone[p] = true
			n.nbrLive--
		}
		for idx, msg := range b.byCopy[:min(len(b.byCopy), len(n.copies))] {
			if msg == nil {
				continue
			}
			v := &n.copies[idx]
			if v.done {
				continue
			}
			if q := v.fromPort[p]; q >= 0 {
				v.inbox[q] = msg
			}
		}
	}
}

// stepAll advances every live copy one virtual round, delivering clique
// messages locally (with the mandatory one-round delay) and bundling cross
// messages per host edge into arena a.
func (n *productNode) stepAll(a *productArena) []local.Message {
	clear(a.rows)
	// Swap every live copy's inbox before any copy steps: sibling messages
	// sent this round go to the next round's inbox, also for copies that
	// step later in this loop.
	for i := range n.copies {
		v := &n.copies[i]
		if !v.done {
			clear(v.spare)
			v.inbox, v.spare = v.spare, v.inbox
		}
	}
	c := len(n.copies)
	for i := range n.copies {
		v := &n.copies[i]
		if v.done {
			continue
		}
		send, done := v.node.Round(v.t, v.spare)
		v.t++
		for q, msg := range send {
			if msg == nil {
				continue
			}
			rt := v.route[q]
			if rt.sibling < 0 {
				a.rows[int(rt.at)*c+i] = msg
			} else if s := &n.copies[rt.sibling]; !s.done {
				s.inbox[rt.at] = msg
			}
		}
		if done {
			v.done = true
			v.out = v.node.Output()
			n.live--
		}
	}
	for p := range a.bundles {
		a.bundles[p].doneAll = n.live == 0
		n.send[p] = &a.bundles[p]
	}
	return n.send
}

// release drops everything but the copies' outputs once the node
// terminates. It only drops references: the final bundles stay intact for
// the receivers still reading them.
func (n *productNode) release() {
	for i := range n.copies {
		n.copies[i] = productVirtual{out: n.copies[i].out}
	}
	n.crossLim, n.nbrDone, n.send = nil, nil, nil
	n.arenas = [2]*productArena{}
}

// Output returns the outputs of copies 1..deg+1.
func (n *productNode) Output() any {
	outs := make([]any, len(n.copies))
	for i, v := range n.copies {
		outs[i] = v.out
	}
	return outs
}

var _ local.Node = (*productNode)(nil)
