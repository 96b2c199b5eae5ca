// Package arbmis implements the bounded-arboricity MIS algorithm behind the
// arboricity rows of Table 1 (Barenboim–Elkin [6] regime, see DESIGN.md §4):
//
//  1. H-partition (Nash–Williams peeling): for ceil(log2 ñ)+1 rounds, every
//     undecided node whose remaining degree is at most 4ã takes the current
//     layer and retires. With a good arboricity guess at least half of the
//     remaining nodes retire per round (the average degree of any subgraph
//     is < 2a), so every node is layered; each node then has at most 4ã
//     neighbours in its own or higher layers.
//
//  2. Layer-by-layer MIS, from the top layer down: within a layer the
//     induced degree is at most 4ã, so the layer is colored with 4ã+1
//     colors (Linial + halving reduction, masked to the layer) and the
//     color classes join greedily, skipping nodes that already have a
//     neighbour in the set.
//
// The running time is Θ(log ñ) windows of O(ã log ã + log* m̃) rounds — a
// product-form bound f(ñ, ã, m̃) = f1(ñ)·(f2(ã)+f3(m̃)) that exercises the
// paper's Observation 4.1 product sequence-number machinery and, with
// Γ = {a, n, m}, Theorem 3's weak domination (a <= n).
package arbmis

import (
	"fmt"

	"github.com/unilocal/unilocal/internal/algorithms/coloralgo"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// Layers returns the number of peeling rounds for the guess ñ.
func Layers(nHat int) int {
	if nHat < 1 {
		nHat = 1
	}
	return mathutil.CeilLog2(nHat) + 1
}

// windowRounds returns the length of one per-layer window.
func windowRounds(aHat int, mHat int64) int {
	d := layerDegree(aHat)
	return 1 + // status round
		coloralgo.DeltaPlusOneRounds(d, mHat) + // masked coloring
		(d + 1) + 1 // greedy classes + slack
}

// layerDegree is the degree bound 4ã inside a layer.
func layerDegree(aHat int) int {
	if aHat < 1 {
		aHat = 1
	}
	return 4 * aHat
}

// Rounds returns the exact running time of New for the given guesses.
func Rounds(aHat, nHat int, mHat int64) int {
	l := Layers(nHat)
	return l + l*windowRounds(aHat, mHat)
}

// BoundLayers is the ascending ñ-factor of the product envelope.
func BoundLayers(n int) int { return Layers(n) + 1 }

// BoundA is the ascending ã-term of the window envelope.
func BoundA(a int) int {
	d := layerDegree(a)
	return mathutil.SatAdd(coloralgo.BoundDelta(d), d+16)
}

// BoundM is the ascending m̃-term of the window envelope.
func BoundM(m int) int { return coloralgo.BoundM(m) }

// New returns the algorithm for guesses ã, ñ, m̃. Output: bool (MIS
// membership). With bad guesses some nodes may stay unlayered and output
// false; termination within Rounds(ã, ñ, m̃) is unconditional.
func New(aHat, nHat int, mHat int64) local.Algorithm {
	// The round geometry (layer count, window length, coloring rounds) and
	// the window coloring are functions of the guesses only; building them
	// once here instead of every Round call keeps the per-node round cost
	// constant (the schedule helpers behind windowRounds rebuild the full
	// Linial/halving schedule).
	d := layerDegree(aHat)
	sched := &schedule{
		layers:      Layers(nHat),
		window:      windowRounds(aHat, mHat),
		degree:      d,
		colorRounds: coloralgo.DeltaPlusOneRounds(d, mHat),
		coloring:    coloralgo.DeltaPlusOne(d, mHat),
	}
	return local.AlgorithmFunc{
		AlgoName: fmt.Sprintf("arbmis(ã=%d,ñ=%d)", aHat, nHat),
		NewNode: func(info local.Info) local.Node {
			return &node{info: info, sched: sched, activeDeg: info.Degree, layer: -1}
		},
	}
}

// schedule is the precomputed round geometry shared by all nodes.
type schedule struct {
	layers      int             // H-partition peeling rounds
	window      int             // rounds per per-layer window
	degree      int             // layer degree bound 4ã
	colorRounds int             // rounds of the masked coloring inside a window
	coloring    local.Algorithm // the masked (4ã+1)-coloring of a window
}

// Message types of the protocol.
type (
	layeredMsg struct{}        // "I joined the current layer"
	statusMsg  struct{ s int } // window round 0: encoded (layer, decided, in)
	joinMsg    struct{}        // "I joined the MIS"
)

// encodeStatus packs (layer, participating, in) into one int.
func encodeStatus(layer int, undecided, in bool) int {
	s := layer << 2
	if undecided {
		s |= 1
	}
	if in {
		s |= 2
	}
	return s
}

type node struct {
	info  local.Info
	sched *schedule

	// Layering state.
	activeDeg int
	layer     int // 1-based; -1 while unlayered

	// Decision state.
	decided bool
	in      bool
	inNbr   bool // some neighbour is in the MIS

	// Per-window state.
	sub   *local.Subrun
	color int
}

func (n *node) Round(r int, recv []local.Message) ([]local.Message, bool) {
	l := n.sched.layers
	if r < l {
		return n.peel(r, recv), false
	}
	w := n.sched.window
	window := (r - l) / w
	offset := (r - l) % w
	if window >= l {
		return nil, true
	}
	processedLayer := l - window // layers processed top-down
	send := n.windowRound(processedLayer, offset, recv)
	done := window == l-1 && offset == w-1
	return send, done
}

// Wake implements local.Sleeper. With an empty inbox a node still peeling
// cannot reach the layer threshold, so it idles until peeling ends; a node
// outside the processed layer (or already decided) idles until the next
// window's status round or its own termination round. A node running the
// window coloring sleeps as long as the coloring does, and wakes by the
// coloring's last round, where it records its color. Other undecided nodes
// of the processed layer never sleep.
func (n *node) Wake(r int) int {
	l, w := n.sched.layers, n.sched.window
	next := r + 1
	if next < l {
		return l
	}
	window, offset := (next-l)/w, (next-l)%w
	if window >= l || offset == 0 {
		return next
	}
	if n.sub != nil {
		// Inner round t runs at window offset t+1.
		start := l + window*w
		return start + 1 + min(n.sub.Wake(), n.sched.colorRounds-1)
	}
	if n.layer == l-window && !n.decided {
		return next
	}
	return min(l+(window+1)*w, l+l*w-1)
}

// peel runs one H-partition round.
func (n *node) peel(r int, recv []local.Message) []local.Message {
	for _, m := range recv {
		if _, ok := m.(layeredMsg); ok {
			n.activeDeg--
		}
	}
	if n.layer < 0 && n.activeDeg <= n.sched.degree {
		n.layer = r + 1
		return local.Broadcast(layeredMsg{}, n.info.Degree)
	}
	return nil
}

// windowRound executes one round of the window for the given layer.
func (n *node) windowRound(layer, offset int, recv []local.Message) []local.Message {
	colorRounds := n.sched.colorRounds
	switch {
	case offset == 0:
		// Status exchange; also pick up joins announced in the previous
		// window's last round.
		n.ingestJoins(recv)
		n.sub = nil
		n.color = 0
		return local.Broadcast(statusMsg{s: encodeStatus(n.layer, !n.decided, n.in)}, n.info.Degree)

	case offset == 1:
		// Build the participant mask and start the masked coloring.
		if n.layer != layer || n.decided {
			return nil
		}
		ports := make([]int, 0, n.info.Degree)
		for p, m := range recv {
			if sm, ok := m.(statusMsg); ok {
				nbLayer := sm.s >> 2
				if nbLayer == layer && sm.s&1 == 1 {
					ports = append(ports, p)
				}
				if sm.s&2 == 2 {
					n.inNbr = true
				}
			}
		}
		ids := make([]int64, len(ports))
		for i, p := range ports {
			ids[i] = n.info.Neighbors[p]
		}
		inner := n.sched.coloring.New(local.Info{
			ID:        n.info.ID,
			Degree:    len(ports),
			Neighbors: ids,
			Input:     nil,
			Rand:      local.DeriveRand(int64(n.info.Rand.Uint64()), n.info.ID, uint64(layer)),
		})
		n.sub = local.NewSubrun(inner, ports)
		return n.sub.Step(make([]local.Message, n.info.Degree), n.info.Degree)

	case offset <= colorRounds:
		n.ingestJoins(recv)
		if n.sub == nil {
			return nil
		}
		// The offset, not a per-call count, gives the inner round: the
		// engine skips the rounds the coloring sleeps through (see Wake).
		send := n.sub.StepAt(offset-1, recv, n.info.Degree)
		if offset == colorRounds {
			if c, ok := n.sub.Output().(int); ok {
				n.color = c
			} else {
				n.color = 1 // arbitrary fallback under bad guesses
			}
			n.sub = nil
		}
		return send

	default:
		// Greedy color classes: class c acts at offset colorRounds + c.
		n.ingestJoins(recv)
		c := offset - colorRounds
		if n.layer == layer && !n.decided && n.color == c {
			n.decided = true
			if !n.inNbr {
				n.in = true
				return local.Broadcast(joinMsg{}, n.info.Degree)
			}
		}
		return nil
	}
}

// ingestJoins records join announcements from any layer.
func (n *node) ingestJoins(recv []local.Message) {
	for _, m := range recv {
		if _, ok := m.(joinMsg); ok {
			n.inNbr = true
		}
	}
}

func (n *node) Output() any { return n.in }

var (
	_ local.Node    = (*node)(nil)
	_ local.Sleeper = (*node)(nil)
)
