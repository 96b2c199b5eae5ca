package core

import "github.com/unilocal/unilocal/internal/idindex"

// This file defines the pruning-algorithm abstraction of Section 3. A
// pruning algorithm P takes a triplet (G, x, ŷ) — graph, input vector,
// tentative output vector — and selects a set W of nodes to prune, possibly
// rewriting the inputs of the survivors, subject to:
//
//   - solution detection: if (G, x, ŷ) solves the problem, every node is
//     pruned;
//   - gluing: any solution of the surviving configuration (G', x') combines
//     with ŷ restricted to W into a solution for (G, x).
//
// The framework runs pruners as constant-round local procedures: each node
// gathers the radius-Radius() ball of the *current induced graph* (records
// carry identity, input, tentative output and active-neighbour lists) and
// evaluates Decide on it. This matches the paper's convention that a
// pruning algorithm is a uniform constant-time local algorithm.

// BallRecord is one record of a gathered ball view: what a node publishes
// about itself for one pruning phase. Each node owns its record and the
// gather phase floods pointers to it (see ballRef), so a record is built
// once per node and window, however many balls it joins.
type BallRecord struct {
	// ID is the node's identity.
	ID int64
	// Input is its current problem input x(v).
	Input any
	// Tentative is its tentative output ŷ(v). It may be nil or of an
	// unexpected type (the "restricted to i rounds" convention produces
	// arbitrary outputs); pruners must treat such values as non-solutions.
	Tentative any
	// Neighbors lists the identities of its neighbours in the induced graph.
	// The slice is shared and immutable for the lifetime of the ball.
	Neighbors []int64
}

// HasNeighbor reports whether the record lists the given identity.
func (b *BallRecord) HasNeighbor(id int64) bool {
	for _, x := range b.Neighbors {
		if x == id {
			return true
		}
	}
	return false
}

// ballRef is one entry of a ball: a shared record and its distance from
// the viewer, which is the viewer's own and so lives outside the record.
type ballRef struct {
	rec  *BallRecord
	dist int32
}

// Ball is the radius-r view around a node. Its entries live in one flat
// slice ordered by non-decreasing distance (BFS discovery order), with the
// centre first; the order is deterministic, so pruners that scan entries
// 0…Len()-1 are replay-stable and may stop early once Dist(i) exceeds
// their horizon.
type Ball struct {
	// CenterID is the identity of the node deciding.
	CenterID int64

	refs  []ballRef
	index *idindex.Index
}

// reset points the ball at an externally pooled arena and index. The arena
// must hold the centre first and be in BFS discovery order.
func (b *Ball) reset(centerID int64, refs []ballRef, index *idindex.Index) {
	b.CenterID = centerID
	b.refs = refs
	b.index = index
}

// Center returns the centre record.
func (b *Ball) Center() *BallRecord {
	if len(b.refs) > 0 && b.refs[0].rec.ID == b.CenterID {
		return b.refs[0].rec
	}
	return b.Get(b.CenterID)
}

// Get returns the record with the given identity, or nil. The record is
// shared with every ball that holds it and is only valid for the duration
// of the Decide call that received the ball.
func (b *Ball) Get(id int64) *BallRecord {
	if i, ok := b.index.Get(id); ok {
		return b.refs[i].rec
	}
	return nil
}

// Record returns entry i, 0 <= i < Len(): the centre at 0, then the other
// members in non-decreasing distance. Callers must treat it as read-only
// and must not retain it past the Decide call.
func (b *Ball) Record(i int) *BallRecord { return b.refs[i].rec }

// Dist returns the distance of entry i from the centre in the induced
// graph.
func (b *Ball) Dist(i int) int { return int(b.refs[i].dist) }

// Len returns the number of records in the ball.
func (b *Ball) Len() int { return len(b.refs) }

// Decision is a pruner's verdict for one node.
type Decision struct {
	// Prune indicates the node's tentative output is final: the node leaves
	// the computation (it joins the set W of the paper).
	Prune bool
	// NewInput, if non-nil, replaces the node's input for the surviving
	// configuration (the x' of the paper). Ignored for pruned nodes.
	NewInput any
}

// Pruner is a pruning algorithm. Decide must be a pure function of the ball
// (it runs concurrently at every node) and must satisfy solution detection
// and gluing for its problem; the tests in this package check both
// properties on randomized instances. Decide must not retain the ball or
// any record pointer obtained from it: the backing storage is pooled and
// rewritten by the next window.
type Pruner interface {
	Name() string
	// Radius is the ball radius Decide inspects; the framework charges
	// Radius+2 rounds per pruning phase (Radius gather rounds, one announce
	// round, one absorb round).
	Radius() int
	Decide(b *Ball) Decision
}
