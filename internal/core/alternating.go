package core

import (
	"math"
	"math/rand/v2"

	"github.com/unilocal/unilocal/internal/local"
)

// Step is one link of an alternating algorithm's chain: run Algo restricted
// to Budget rounds on the surviving subgraph, then prune.
type Step struct {
	Algo   local.Algorithm
	Budget int
}

// Plan enumerates the steps of an alternating algorithm. Implementations
// must be pure functions of k (they are invoked concurrently by every node,
// and every node must derive the identical schedule). Returning ok = false
// means the plan is exhausted; a correct transformer plan is infinite in
// principle and exhausts only on arithmetic saturation.
type Plan interface {
	Step(k int) (step Step, ok bool)
}

// NewAlternating returns the alternating algorithm π((A_k)_k, P) of Section
// 3.3 as a single uniform LOCAL algorithm (Figure 1 of the paper). Each
// node repeats:
//
//	window k:   run plan.Step(k).Algo for exactly Budget rounds on the
//	            subgraph induced by the surviving nodes (ports of pruned
//	            neighbours are masked away);
//	gather:     flood (identity, input, tentative output, active-neighbour
//	            list) records for Radius rounds;
//	announce:   evaluate the pruner on the gathered ball; pruned nodes
//	            broadcast departure and terminate with their tentative
//	            output; survivors broadcast survival;
//	absorb:     survivors update their active-port sets and inputs and move
//	            to window k+1.
//
// Because every window length is a pure function of k, all nodes stay in
// lockstep without any synchronisation traffic, exactly as in Algorithm 1
// and Algorithm 2 of the paper. By Observation 3.4, if the execution
// terminates the combined output solves the pruner's problem.
//
// The plan is wrapped in a shared memoized step cache (MemoPlan), so the
// schedule arithmetic — doubling loops, SetSequence materialisations — runs
// once per step index for the whole network instead of once per node per
// window. The returned algorithm may be reused across any number of
// concurrent Runs; see DESIGN.md §2.5 for the sharing rules.
func NewAlternating(name string, plan Plan, pruner Pruner) local.Algorithm {
	plan = MemoPlan(plan)
	return local.AlgorithmFunc{
		AlgoName: name,
		NewNode: func(info local.Info) local.Node {
			n := &altNode{info: info, plan: plan, pruner: pruner, input: info.Input}
			n.activePorts = make([]int, info.Degree)
			for p := range n.activePorts {
				n.activePorts[p] = p
			}
			return n
		},
	}
}

// gatherMsg floods ball records during the pruning phase. The records slice
// is a sub-slice of the sender's arena holding only the records the sender
// first learned in the previous round (the BFS frontier of its ball): the
// standard flooding argument gives every record one shortest-path journey,
// so per-window traffic is O(|ball|) records per node instead of the
// O(radius·|ball|) of whole-set re-flooding. Receivers copy records out
// within one round; the sender only ever appends past the sub-slice, so the
// shared backing array is race-free. Messages are sent as pointers into a
// per-node parity-double-buffered pair, rewritten two rounds after they were
// sent, as the message-reuse rule of local.Node allows.
type gatherMsg struct {
	records []BallRecord
}

// announceMsg reports whether the sender survives into the next window.
type announceMsg struct {
	surviving bool
}

type altNode struct {
	info   local.Info
	plan   Plan
	pruner Pruner

	k        int // current step index
	step     Step
	winStart int // round at which the current window began
	sub      *local.Subrun

	activePorts []int // host ports of surviving neighbours
	input       any   // current input x_k(v)
	tentative   any
	decision    Decision
	exhausted   bool

	// Pooled pruning state, reset (not reallocated) every window. arena
	// holds the gathered ball in BFS discovery order with the own record
	// first; index maps identities to arena positions; deltaLo marks the
	// start of the newest BFS frontier (the records to forward next round).
	arena   []BallRecord
	index   map[int64]int32
	ball    Ball
	deltaLo int

	// ids holds the identities of the surviving neighbours, rebuilt in
	// place at every window start. It backs both the inner Info.Neighbors
	// and the own ball record's Neighbors for that window: lockstep
	// guarantees every remote Decide that can observe it has finished
	// before the next rewrite.
	ids []int64

	// sendBuf is the degree-sized broadcast buffer, reused every
	// announce/gather round (the engine consumes a send slice before the
	// next Round call, so one backing array is safe). gmBuf holds the two
	// parity-alternating gather envelopes.
	sendBuf []local.Message
	gmBuf   [2]gatherMsg

	// winPCG/winRand are the per-window RNG handed to the inner algorithm,
	// reseeded in place at every window start with the same draws a fresh
	// PCG would consume.
	winPCG  rand.PCG
	winRand *rand.Rand
}

func (n *altNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if n.exhausted {
		// Plan ran out of steps: idle (the engine's round cap will surface
		// this as an error; it indicates a broken plan or bound).
		return nil, false
	}
	// The offset is computed from r, not counted per call: the engine skips
	// the rounds of a silent stretch the node slept through (see Wake).
	offset := r - n.winStart
	if offset == 0 && !n.beginWindow() {
		return nil, false
	}
	budget := n.step.Budget
	radius := n.pruner.Radius()
	var send []local.Message
	switch {
	case offset < budget: // run phase
		send = n.stepInner(offset, recv)
	case offset < budget+radius: // gather phase
		send = n.gather(offset == budget, r&1, recv)
	case offset == budget+radius: // announce phase
		n.mergeRecords(recv)
		n.ball.reset(n.info.ID, n.arena, n.index)
		n.decision = n.pruner.Decide(&n.ball)
		send = n.broadcastActive(announceMsg{surviving: !n.decision.Prune})
		if n.decision.Prune {
			n.release()
			return send, true
		}
	default: // absorb phase
		n.absorb(recv)
		n.k++
		n.winStart = r + 1
		return nil, false
	}
	return send, false
}

// Wake implements local.Sleeper. Only the run phase sleeps, and only as
// long as the inner node does: forever once it is done, or while it is an
// idle Sleeper itself. The node always wakes by the window's last run
// round, where the tentative output is recorded. An exhausted plan sleeps
// forever.
func (n *altNode) Wake(r int) int {
	if n.exhausted {
		return math.MaxInt
	}
	offset := r + 1 - n.winStart
	if offset <= 0 || offset >= n.step.Budget {
		return r + 1
	}
	return n.winStart + min(n.sub.Wake(), n.step.Budget-1)
}

// beginWindow fetches step k and instantiates the inner node on the current
// induced neighbourhood. It reports false (and idles) if the plan is
// exhausted.
func (n *altNode) beginWindow() bool {
	step, ok := n.plan.Step(n.k)
	if !ok {
		n.exhausted = true
		n.release()
		return false
	}
	if step.Budget < 1 {
		step.Budget = 1
	}
	n.step = step
	if n.ids == nil {
		n.ids = make([]int64, 0, len(n.activePorts))
	}
	n.ids = n.ids[:0]
	for _, p := range n.activePorts {
		n.ids = append(n.ids, n.info.Neighbors[p])
	}
	s1 := n.info.Rand.Uint64()
	s2 := n.info.Rand.Uint64()
	n.winPCG.Seed(s1, s2)
	if n.winRand == nil {
		n.winRand = rand.New(&n.winPCG)
	}
	info := local.Info{
		ID:        n.info.ID,
		Degree:    len(n.activePorts),
		Neighbors: n.ids,
		Input:     n.input,
		Rand:      n.winRand,
	}
	if n.sub == nil {
		n.sub = local.NewSubrun(step.Algo.New(info), n.activePorts)
	} else {
		n.sub.Reset(step.Algo.New(info), n.activePorts)
	}
	return true
}

// stepInner advances the restricted inner execution to the window offset.
func (n *altNode) stepInner(offset int, recv []local.Message) []local.Message {
	send := n.sub.StepAt(offset, recv, n.info.Degree)
	if offset+1 == n.step.Budget {
		// Budget expires after this round: record the tentative output
		// (final if the inner node halted, arbitrary otherwise — the
		// "restricted to i rounds" convention) and drop the inner state
		// machine so the window's state is collectable.
		n.tentative = n.sub.Output()
		n.sub.Clear()
	}
	return send
}

// gather floods ball records through the induced graph by delta flooding:
// each round a node forwards exactly the records it first learned in the
// previous round. Records travel along shortest paths, so after the first
// round plus t forwarding rounds every node knows every record at induced
// distance <= t+1, the same ball whole-set re-flooding produces.
func (n *altNode) gather(first bool, parity int, recv []local.Message) []local.Message {
	if first {
		if n.arena == nil {
			// Pre-size for the common small-radius case: a radius-2 ball
			// holds at most 1 + deg + deg·(deg-1) records, and the arena
			// grows (once, keeping capacity forever) if the ball is larger.
			hint := 2 + 4*len(n.activePorts)
			n.arena = make([]BallRecord, 0, hint)
			n.index = make(map[int64]int32, hint)
		} else {
			n.arena = n.arena[:0]
			clear(n.index)
		}
		n.arena = append(n.arena, BallRecord{
			ID:        n.info.ID,
			Dist:      0,
			Input:     n.input,
			Tentative: n.tentative,
			Neighbors: n.ids,
		})
		n.index[n.info.ID] = 0
		n.deltaLo = 0
	} else {
		n.deltaLo = len(n.arena)
		n.mergeRecords(recv)
	}
	// An empty delta is still broadcast: the fixed message pattern keeps the
	// phase structure (and Result.Messages) independent of ball shape.
	gm := &n.gmBuf[parity]
	gm.records = n.arena[n.deltaLo:len(n.arena):len(n.arena)]
	return n.broadcastActive(gm)
}

// mergeRecords ingests flooded deltas, appending first-seen records to the
// arena. First arrival is along a shortest path, so the recorded distance
// is minimal; later copies of the same record are duplicates and dropped.
func (n *altNode) mergeRecords(recv []local.Message) {
	for _, p := range n.activePorts {
		gm, ok := recv[p].(*gatherMsg)
		if !ok {
			continue
		}
		for i := range gm.records {
			rec := &gm.records[i]
			if _, seen := n.index[rec.ID]; seen {
				continue
			}
			n.index[rec.ID] = int32(len(n.arena))
			n.arena = append(n.arena, BallRecord{
				ID:        rec.ID,
				Dist:      rec.Dist + 1,
				Input:     rec.Input,
				Tentative: rec.Tentative,
				Neighbors: rec.Neighbors,
			})
		}
	}
}

// absorb processes survival announcements and applies the input rewrite.
func (n *altNode) absorb(recv []local.Message) {
	next := n.activePorts[:0]
	for _, p := range n.activePorts {
		if am, ok := recv[p].(announceMsg); ok && am.surviving {
			next = append(next, p)
		}
	}
	n.activePorts = next
	if n.decision.NewInput != nil {
		n.input = n.decision.NewInput
	}
}

// broadcastActive sends msg to the surviving neighbours only.
func (n *altNode) broadcastActive(msg local.Message) []local.Message {
	if len(n.activePorts) == 0 {
		return nil
	}
	if n.sendBuf == nil {
		n.sendBuf = make([]local.Message, n.info.Degree)
	}
	send := n.sendBuf
	for p := range send {
		send[p] = nil
	}
	for _, p := range n.activePorts {
		send[p] = msg
	}
	return send
}

// release drops the pooled state of a node that will never run another
// window (pruned or exhausted), so the engine's states table does not pin
// every terminated node's last ball for the rest of the run.
func (n *altNode) release() {
	n.arena, n.index, n.ids, n.sendBuf, n.sub = nil, nil, nil, nil, nil
	n.ball = Ball{}
}

func (n *altNode) Output() any { return n.tentative }

var (
	_ local.Node    = (*altNode)(nil)
	_ local.Sleeper = (*altNode)(nil)
)
