package local

import "sync/atomic"

// Test-only exports for the external local_test package, which can import
// the algorithms built on Compose (colormis, coloralgo, core, lift).

// BufPeaks collects the largest early-payload buffer any probed node held
// after a Round: Len its length, Cap the capacity of its backing array.
// Cap stays 0 only if no payload ever entered the buffer, even one taken
// out again within the same Round.
type BufPeaks struct{ Len, Cap atomic.Int64 }

// BufProbe returns a, a composition, instrumented to fold the buffer of
// every composed node it runs, its own and those of the compositions nested
// in its stages, into peaks after each Round (atomic maxima, safe at any
// worker count). A nested node steps only inside its parent's Round, so
// none of its Rounds goes unobserved.
func BufProbe(peaks *BufPeaks, a Algorithm) Algorithm {
	return AlgorithmFunc{
		AlgoName: a.Name(),
		NewNode: func(info Info) Node {
			return &bufProbe{composeNode: a.New(info).(*composeNode), peaks: peaks}
		},
	}
}

type bufProbe struct {
	*composeNode
	peaks *BufPeaks
}

func (b *bufProbe) Round(r int, recv []Message) ([]Message, bool) {
	send, done := b.composeNode.Round(r, recv)
	for n, ok := b.composeNode, true; ok; n, ok = n.inner.(*composeNode) {
		atomicMax(&b.peaks.Len, int64(len(n.buf)))
		atomicMax(&b.peaks.Cap, int64(cap(n.buf)))
	}
	return send, done
}

func atomicMax(a *atomic.Int64, v int64) {
	for old := a.Load(); v > old && !a.CompareAndSwap(old, v); old = a.Load() {
	}
}
