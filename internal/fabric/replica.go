package fabric

import "time"

// breakerState is a replica's circuit-breaker position.
//
//	closed    — healthy, takes work.
//	open      — too many consecutive failures; takes no work until a
//	            /healthz probe succeeds. Requests it would have received go
//	            to other replicas (or in-process fallback) instead, so a
//	            dead replica costs probe round-trips, not request timeouts.
//	half-open — probe succeeded; one trial request is allowed. Success
//	            closes the breaker, failure reopens it immediately.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String renders the breaker position the way operators read it in the
// -status summary.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// replica is the scheduler-owned state of one endpoint. Only the scheduler
// goroutine touches it.
type replica struct {
	url     string
	state   breakerState
	fails   int // consecutive failures
	busy    int // live attempts on this replica
	probing bool
	probeAt time.Time

	// Cumulative supervision counters, exported as ReplicaStatus at sweep
	// end (the scheduler owns them; no locking).
	attempts  int
	successes int
	failures  int
}

// status snapshots the replica's supervision state.
func (rep *replica) status() ReplicaStatus {
	return ReplicaStatus{
		URL:              rep.url,
		Breaker:          rep.state.String(),
		ConsecutiveFails: rep.fails,
		Attempts:         rep.attempts,
		Successes:        rep.successes,
		Failures:         rep.failures,
	}
}

// pick returns a replica able to take one attempt now, or nil. Closed
// replicas are preferred least-busy-first (spreading shards evenly); a
// half-open replica is used only when idle, as its single trial request.
func (r *sweepRun) pick() *replica {
	var best *replica
	for _, rep := range r.reps {
		if rep.state != breakerClosed || rep.busy >= maxPerReplica {
			continue
		}
		if best == nil || rep.busy < best.busy {
			best = rep
		}
	}
	if best != nil {
		return best
	}
	for _, rep := range r.reps {
		if rep.state == breakerHalfOpen && rep.busy == 0 {
			return rep
		}
	}
	return nil
}

// maxPerReplica caps concurrent attempts per replica: each replica is
// itself a parallel sweep executor, so queueing a second request behind the
// first (instead of a third, fourth, …) keeps its admission queue shallow
// while hiding the coordinator's round-trip latency.
const maxPerReplica = 2

// allOpen reports whether no replica can currently take work at all —
// the "fleet is gone" condition that triggers in-process fallback.
func (r *sweepRun) allOpen() bool {
	for _, rep := range r.reps {
		if rep.state != breakerOpen {
			return false
		}
	}
	return true
}

func (r *sweepRun) noteSuccess(rep *replica) {
	rep.fails = 0
	rep.successes++
	if rep.state != breakerClosed {
		r.c.logf("fabric: %s closed (recovered)", rep.url)
		rep.state = breakerClosed
	}
}

func (r *sweepRun) noteFailure(rep *replica) {
	rep.fails++
	rep.failures++
	if rep.state == breakerHalfOpen || (rep.state == breakerClosed && rep.fails >= r.c.cfg.FailureThreshold) {
		rep.state = breakerOpen
		rep.probeAt = time.Now().Add(r.c.cfg.ProbeInterval)
		r.stats.BreakerOpens++
		r.c.logf("fabric: %s open after %d consecutive failures", rep.url, rep.fails)
	}
}
