package local

import "sync/atomic"

// Test-only exports for the external local_test package, which can import
// the algorithms built on Compose (colormis, coloralgo, core, lift).

// LegacyCompose is the frozen pre-refactor Compose (compose_legacy_test.go).
var LegacyCompose = legacyCompose

// LegacyWithWakeup is WithWakeup over LegacyCompose.
var LegacyWithWakeup = legacyWithWakeup

// BufPeaks collects the largest early-payload buffer any probed node held
// after a Round: Len its length, Cap the capacity of its backing array.
// Cap stays 0 only if no payload ever entered the buffer, even one taken
// out again within the same Round.
type BufPeaks struct{ Len, Cap atomic.Int64 }

// ComposeBufProbe returns Compose(name, stages...) instrumented to fold
// every node's buffer into peaks after each Round (atomic maxima, safe at
// any worker count).
func ComposeBufProbe(peaks *BufPeaks, name string, stages ...Stage) Algorithm {
	c := Compose(name, stages...)
	return AlgorithmFunc{
		AlgoName: name,
		NewNode: func(info Info) Node {
			return &bufProbe{composeNode: c.New(info).(*composeNode), peaks: peaks}
		},
	}
}

type bufProbe struct {
	*composeNode
	peaks *BufPeaks
}

func (b *bufProbe) Round(r int, recv []Message) ([]Message, bool) {
	send, done := b.composeNode.Round(r, recv)
	atomicMax(&b.peaks.Len, int64(len(b.buf)))
	atomicMax(&b.peaks.Cap, int64(cap(b.buf)))
	return send, done
}

func atomicMax(a *atomic.Int64, v int64) {
	for old := a.Load(); v > old && !a.CompareAndSwap(old, v); old = a.Load() {
	}
}
