// Package local implements the LOCAL model of distributed computing used by
// Korman–Sereni–Viennot: a synchronous, fault-free message-passing network in
// which every node runs the same algorithm, messages have unbounded size and
// local computation is free. The complexity measure is the number of rounds.
//
// An Algorithm is instantiated into one Node state machine per graph vertex.
// Computation proceeds in global lockstep rounds driven by Run; each node may
// terminate individually ("writes its final output value in its designated
// output variable", Section 2 of the paper), and the running time of an
// execution is the latest termination round over all nodes.
//
// The package also provides the paper's Section 2 composition machinery:
// Compose chains algorithms A1;A2;... under non-simultaneous local wake-up
// using the α-synchronizer, establishing Observation 2.1 (the running time of
// A1;A2 is at most the sum of the running times).
package local

import (
	"math/rand/v2"

	"github.com/unilocal/unilocal/internal/mathutil"
)

// Message is an arbitrary immutable value exchanged between neighbours in
// one round. Receivers must not modify messages: a broadcast delivers the
// same value to every neighbour.
type Message = any

// Info is the static knowledge available to a node at wake-up: its own
// identity and input, its degree, the identities of its neighbours in port
// order (the standard one-round "KT1" convenience), and a private
// deterministic randomness source.
//
// The Neighbors slice is borrowed from engine-owned storage that is recycled
// across runs: it stays valid (and immutable) for the lifetime of the run
// that created the node, but must not be retained past it — in particular,
// a value returned from Output must not alias it (copy the identities
// instead), or the Result would mutate when the engine state is reused.
type Info struct {
	ID        int64
	Degree    int
	Neighbors []int64
	Input     any
	Rand      *rand.Rand
}

// NeighborPort returns the port of the neighbour with the given identity, or
// -1 if no such neighbour exists.
func (in *Info) NeighborPort(id int64) int {
	for p, x := range in.Neighbors {
		if x == id {
			return p
		}
	}
	return -1
}

// Node is the per-node state machine of a distributed algorithm.
//
// Round is called once per synchronous round, starting at r = 0. recv[p]
// holds the message sent in the previous round by the neighbour on port p,
// or nil if it sent nothing (or has terminated); at r = 0 all entries are
// nil. The returned send slice is either empty/nil (silence) or has exactly
// Degree entries, send[p] being delivered to port p next round. Returning
// done = true terminates the node: its final messages are still delivered,
// afterwards Round is never called again and Output must return the node's
// final output.
//
// Both slices are borrowed, not owned: recv is only valid for the duration
// of the call, and the caller consumes the returned send slice before the
// next Round call, so implementations may reuse one backing array for their
// sends round after round.
//
// Message reuse rule: a message sent at a node's step r is read by its
// receivers no later than their step r+1, so from its own step r+2 on the
// sender may rewrite the storage behind it (double-buffering by step
// parity is enough); until then it must stay immutable. A receiver that
// needs a message's contents later copies them out within that step. Run's
// round barrier gives the rule directly, and so do Subrun windows, which
// step their inner node once per host round. Compose keeps it under
// non-simultaneous wake-up: a node executes step r+2 of a stage only once
// every neighbour has executed step r+1 of it or left the stage, and that
// step consumes the payloads sent from step r, however long the
// α-synchronizer buffered them. Wrappers that deliver an inner node's
// messages must keep the rule for the inner node's own steps.
//
// Multi-hop corollary: by induction along a path, when a node executes
// step s, every node at distance d has executed step s−d, unless some node
// on the path has left the stage. So storage that receivers relay by
// reference for up to h hops, each hop read within the step after it was
// sent, is read by step r+h of every node that reads it, and its sender may
// rewrite it from its own step r+2h on, provided a relay leaves the stage
// only after the sender has stopped writing it.
//
// Output may also be consulted by a wrapper *before* termination — the
// paper's "algorithm restricted to i rounds" takes whatever tentative output
// is present when the budget expires — so implementations should always
// return their current best value (nil is acceptable and treated as an
// arbitrary output by pruning algorithms).
type Node interface {
	Round(r int, recv []Message) (send []Message, done bool)
	Output() any
}

// Sleeper is an optional interface of a Node that can tell the engine how
// long it would stay idle. After a round r in which no node sent anything,
// Run asks every live node for Wake(r): the first round after r at which
// the node must be stepped, given that its inbox stays empty until then.
// The promise covers every round in between: Round would have returned
// (nil, false), drawn no randomness, and changed no state that a later
// round reads other than through r. Returning r+1 means the node cannot
// sleep; math.MaxInt means it would idle forever.
//
// When every live node is a Sleeper and the earliest wake round w is past
// r+1, Run skips straight to round w (capped at MaxRounds) and accounts the
// skipped node-rounds in Steps, so Results are byte-identical to stepping
// every round. Wake is called between rounds, never concurrently with
// Round, so it needs no synchronisation.
type Sleeper interface {
	Wake(r int) int
}

// Algorithm creates the per-node state machines of a distributed algorithm.
// Implementations must be safe for concurrent calls to New, and the Node
// they return is driven by a single goroutine at a time.
type Algorithm interface {
	Name() string
	New(info Info) Node
}

// Broadcast returns a send slice delivering msg to every one of deg ports.
func Broadcast(msg Message, deg int) []Message {
	if deg == 0 {
		return nil
	}
	send := make([]Message, deg)
	for i := range send {
		send[i] = msg
	}
	return send
}

// Silence is the empty send slice.
func Silence() []Message { return nil }

// DeriveRand returns a deterministic child RNG for stream i of the given
// parent-less identity; Run uses it to seed per-node randomness and nested
// simulations (lifts, transformer iterations) use it for per-incarnation
// streams.
func DeriveRand(seed int64, id int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(DeriveSeeds(seed, id, stream)))
}

// DeriveSeeds returns the PCG seed pair DeriveRand would use, so hosts that
// run one child per stage or window can reseed a pooled generator in place
// instead of allocating a fresh one per incarnation.
func DeriveSeeds(seed int64, id int64, stream uint64) (uint64, uint64) {
	s1 := mathutil.SplitMix64(uint64(seed) ^ mathutil.SplitMix64(uint64(id)))
	s2 := mathutil.SplitMix64(s1 ^ mathutil.SplitMix64(stream+0x1234_5678_9abc_def0))
	return s1, s2
}

// AlgorithmFunc adapts a New function into an Algorithm.
type AlgorithmFunc struct {
	AlgoName string
	NewNode  func(info Info) Node
}

// Name implements Algorithm.
func (a AlgorithmFunc) Name() string { return a.AlgoName }

// New implements Algorithm.
func (a AlgorithmFunc) New(info Info) Node { return a.NewNode(info) }

var _ Algorithm = AlgorithmFunc{}
