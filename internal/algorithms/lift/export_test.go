package lift

import (
	"sync/atomic"

	"github.com/unilocal/unilocal/internal/local"
)

// Test-only exports for the external lift_test package, which can import
// the packages built on top of lift (matching, core, engines).

// HostSuite is the small host-graph suite of the lift tests.
var HostSuite = hostSuite

// ArenaStats counts, over a lifted run, the node-rounds whose phase arena
// shrank (used fewer bundles or items than the last time it was used) and
// the arena slots past the current use that still held a bundle or an item
// after a Round.
type ArenaStats struct{ Shrinks, Stale atomic.Int64 }

// LineGraphArenaProbe returns LineGraph(algo, nil) instrumented to fold
// every node's arenas into stats after each Round (atomic counters, safe at
// any worker count).
func LineGraphArenaProbe(stats *ArenaStats, algo local.Algorithm) local.Algorithm {
	lg := LineGraph(algo, nil)
	return local.AlgorithmFunc{
		AlgoName: lg.Name(),
		NewNode: func(info local.Info) local.Node {
			return &arenaProbe{lineNode: lg.New(info).(*lineNode), stats: stats}
		},
	}
}

type arenaProbe struct {
	*lineNode
	stats *ArenaStats
}

func (p *arenaProbe) Round(r int, recv []local.Message) ([]local.Message, bool) {
	var used [2][2]int
	for i := range p.arenas {
		used[i] = [2]int{len(p.arenas[i].bundles), len(p.arenas[i].items)}
	}
	send, done := p.lineNode.Round(r, recv)
	for i := range p.arenas {
		a := &p.arenas[i]
		if len(a.bundles) < used[i][0] || len(a.items) < used[i][1] {
			p.stats.Shrinks.Add(1)
		}
		for _, b := range a.bundles[len(a.bundles):cap(a.bundles)] {
			if b.items != nil || b.done || b.out != nil {
				p.stats.Stale.Add(1)
			}
		}
		for _, it := range a.items[len(a.items):cap(a.items)] {
			if it.payload != nil {
				p.stats.Stale.Add(1)
			}
		}
	}
	return send, done
}
