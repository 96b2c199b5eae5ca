// Package luby implements Luby's randomized maximal-independent-set
// algorithm (Luby 1986; Alon–Babai–Itai 1986) in the LOCAL model. It is the
// "Rand. MIS, uniform, O(log n)" row of Table 1 of Korman–Sereni–Viennot:
// the algorithm needs no global knowledge, every node terminates when its
// status is decided, and with high probability all nodes have terminated
// after O(log n) rounds.
//
// The package also provides the budget-truncated variant used by Theorem 2:
// running the algorithm for a fixed number T(ñ) of rounds derived from a
// guess ñ of the number of nodes yields a weak Monte Carlo MIS algorithm
// whose guarantee holds whenever the guess is good.
package luby

import (
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// New returns the uniform Las Vegas MIS algorithm. Each node outputs a bool:
// true iff it joined the independent set. Undecided nodes output false, which
// only matters for truncated runs.
func New() local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "luby-mis",
		NewNode:  func(info local.Info) local.Node { return &node{info: info} },
	}
}

// TruncationConst scales the truncation budget of Truncated; the default is
// deliberately generous so that a good guess succeeds with probability well
// above the 1/2 used in the Theorem 2 analysis.
const TruncationConst = 8

// Rounds returns the truncation budget T(ñ) used by Truncated for the guess
// nGuess: Θ(log ñ) phases of two rounds each.
func Rounds(nGuess int) int {
	if nGuess < 1 {
		nGuess = 1
	}
	return 2 * (TruncationConst*(mathutil.CeilLog2(nGuess)+1) + 2)
}

// Truncated returns Luby's algorithm restricted to Rounds(nGuess) rounds: a
// weak Monte Carlo MIS algorithm in the sense of Section 2 whose success
// probability is at least 1/2 (empirically much higher) whenever
// nGuess >= n.
func Truncated(nGuess int) local.Algorithm {
	return local.RestrictRounds(New(), Rounds(nGuess))
}

type msgKind byte

const (
	kindBid msgKind = iota + 1
	kindJoin
	kindLeave
)

// msg is the single message type of the protocol. Bids carry the random
// value and the sender identity for tie-breaking.
type msg struct {
	kind msgKind
	val  uint64
	id   int64
}

type node struct {
	info local.Info
	in   bool
	// bid is the value drawn in the current phase.
	bid uint64
	// send is the send slice, reused every round (the caller consumes it
	// before the next Round call).
	send []local.Message
}

// Round implements the two-round phase structure:
//
//	even rounds ("bid"):     process join/leave announcements; dominated
//	                         nodes leave; survivors draw and broadcast bids.
//	odd rounds ("resolve"):  a node strictly minimal among the received bids
//	                         joins the set and announces it.
func (n *node) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if r%2 == 0 {
		for _, m := range recv {
			if bm, ok := m.(msg); ok && bm.kind == kindJoin {
				// A neighbour joined the set: leave and terminate.
				return n.broadcast(msg{kind: kindLeave}), true
			}
		}
		n.bid = n.info.Rand.Uint64()
		return n.broadcast(msg{kind: kindBid, val: n.bid, id: n.info.ID}), false
	}
	for _, m := range recv {
		bm, ok := m.(msg)
		if !ok || bm.kind != kindBid {
			continue
		}
		if bm.val < n.bid || (bm.val == n.bid && bm.id < n.info.ID) {
			// Not the local minimum: stay undecided.
			return nil, false
		}
	}
	n.in = true
	return n.broadcast(msg{kind: kindJoin}), true
}

// broadcast sends m to every port through the reused send slice.
func (n *node) broadcast(m local.Message) []local.Message {
	if n.info.Degree == 0 {
		return nil
	}
	if n.send == nil {
		n.send = make([]local.Message, n.info.Degree)
	}
	for p := range n.send {
		n.send[p] = m
	}
	return n.send
}

func (n *node) Output() any { return n.in }

var _ local.Node = (*node)(nil)
