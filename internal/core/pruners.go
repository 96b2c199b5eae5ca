package core

import (
	"fmt"

	"github.com/unilocal/unilocal/internal/problems"
)

// RulingSetPruner returns the pruning algorithm P(2,β) of Observation 3.2
// for the (2, beta)-ruling set problem; beta = 1 is the MIS pruner. A node u
// is pruned iff
//
//   - ŷ(u) = 1 and no neighbour has ŷ = 1 (u is a correctly isolated
//     member), or
//   - ŷ(u) = 0 and some node v within distance beta has ŷ(v) = 1 with no
//     neighbour of v having ŷ = 1 (u is dominated by a correct member).
//
// It never rewrites inputs, so by Observation 3.1 it is monotone with
// respect to every non-decreasing parameter.
func RulingSetPruner(beta int) Pruner {
	if beta < 1 {
		beta = 1
	}
	return rulingPruner{beta: beta}
}

// MISPruner is P(2,1), the pruning algorithm for maximal independent set.
func MISPruner() Pruner { return RulingSetPruner(1) }

type rulingPruner struct{ beta int }

func (p rulingPruner) Name() string { return fmt.Sprintf("P(2,%d)", p.beta) }

// Radius is beta+1: deciding whether a member v at distance <= beta is
// isolated requires v's neighbours, at distance <= beta+1.
func (p rulingPruner) Radius() int { return p.beta + 1 }

func (p rulingPruner) Decide(b *Ball) Decision {
	selected := func(n *BallRecord) bool {
		v, ok := n.Tentative.(bool)
		return ok && v
	}
	isolatedMember := func(n *BallRecord) bool {
		if !selected(n) {
			return false
		}
		for _, nb := range n.Neighbors {
			if r := b.Get(nb); r != nil && selected(r) {
				return false
			}
		}
		return true
	}
	c := b.Center()
	if selected(c) {
		return Decision{Prune: isolatedMember(c)}
	}
	// Entries are in non-decreasing distance order, so the scan for a
	// dominating member stops at the first entry beyond distance beta.
	for i := range b.Len() {
		if b.Dist(i) > p.beta {
			break
		}
		if isolatedMember(b.Record(i)) {
			return Decision{Prune: true}
		}
	}
	return Decision{}
}

// MatchingPruner returns the pruning algorithm P_MM of Observation 3.3 for
// maximal matching: a node u is pruned iff
//
//   - some neighbour v is matched with u, or
//   - every neighbour v of u is matched with some w != u.
//
// "Matched" is the canonical-claim predicate of problems.Matched (see the
// deviation note there): both endpoints carry the canonical claim of their
// shared edge and no other neighbour does. With canonical claims a matched
// pair is stable — no later output can invalidate it — which yields the
// gluing property: every pruned neighbour of a survivor is rule-1 matched
// (a rule-2 pruning of v certifies all of v's neighbours matched, and
// matched nodes are themselves pruned), so any maximal matching of the
// surviving graph combines with the pruned outputs into a maximal matching
// of the whole graph.
//
// The pruner never rewrites inputs, so it is monotone with respect to every
// parameter.
func MatchingPruner() Pruner { return matchingPruner{} }

type matchingPruner struct{}

func (matchingPruner) Name() string { return "P_MM" }

// Radius is 3: deciding whether a neighbour v is matched to w requires the
// values of w's neighbours, at distance <= 3 from u.
func (matchingPruner) Radius() int { return 3 }

func (matchingPruner) Decide(b *Ball) Decision {
	val := func(n *BallRecord) problems.EdgeClaim {
		if n == nil {
			return problems.EdgeClaim{A: -1, B: -1} // unknown: equals nothing
		}
		switch v := n.Tentative.(type) {
		case nil:
			return problems.EdgeClaim{}
		case problems.EdgeClaim:
			return v
		default:
			return problems.EdgeClaim{A: -1, B: -1}
		}
	}
	// matched reports the canonical predicate for adjacent records u, v.
	matched := func(u, v *BallRecord) bool {
		if u == nil || v == nil || !u.HasNeighbor(v.ID) {
			return false
		}
		want := problems.NewEdgeClaim(u.ID, v.ID)
		if val(u) != want || val(v) != want {
			return false
		}
		for _, wid := range u.Neighbors {
			if wid != v.ID && val(b.Get(wid)) == want {
				return false
			}
		}
		for _, wid := range v.Neighbors {
			if wid != u.ID && val(b.Get(wid)) == want {
				return false
			}
		}
		return true
	}
	c := b.Center()
	for _, vid := range c.Neighbors {
		if matched(c, b.Get(vid)) {
			return Decision{Prune: true}
		}
	}
	if len(c.Neighbors) == 0 {
		// An isolated node is vacuously maximal.
		return Decision{Prune: true}
	}
	for _, vid := range c.Neighbors {
		v := b.Get(vid)
		if v == nil {
			return Decision{}
		}
		vMatched := false
		for _, wid := range v.Neighbors {
			if wid != c.ID && matched(v, b.Get(wid)) {
				vMatched = true
				break
			}
		}
		if !vMatched {
			return Decision{}
		}
	}
	return Decision{Prune: true}
}

var (
	_ Pruner = rulingPruner{}
	_ Pruner = matchingPruner{}
)
