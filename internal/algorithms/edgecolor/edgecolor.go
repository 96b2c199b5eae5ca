// Package edgecolor provides the non-uniform edge-coloring algorithms of
// Table 1's edge-coloring rows, realised — as the paper notes for
// Barenboim–Elkin [7] — by running vertex-coloring algorithms on the line
// graph:
//
//   - New: a (2Δ̃−1)-edge-coloring in O(Δ̃ log Δ̃ + log* m̃) rounds
//     (Panconesi–Rizzi regime): the line graph has maximum degree at most
//     2Δ̃−2, so its (Δ_L+1)-coloring uses 2Δ̃−1 colors.
//
// The host output at each node is a []int of colors, one per port, agreed
// with the neighbour on the shared edge.
package edgecolor

import (
	"fmt"

	"github.com/unilocal/unilocal/internal/algorithms/coloralgo"
	"github.com/unilocal/unilocal/internal/algorithms/lift"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// lineParams derives line-graph guesses from host guesses.
func lineParams(deltaHat int, mHat int64) (int, int64) {
	if deltaHat < 1 {
		deltaHat = 1
	}
	if mHat < 1 {
		mHat = 1
	}
	if mHat > graph.MaxID {
		mHat = graph.MaxID
	}
	dL := 2*deltaHat - 2
	if dL < 0 {
		dL = 0
	}
	return dL, graph.PackIDs(mHat, mHat)
}

// Palette returns the number of colors used by New: 2Δ̃−1.
func Palette(deltaHat int) int {
	dL, _ := lineParams(deltaHat, 1)
	return dL + 1
}

// New returns the (2Δ̃−1)-edge-coloring algorithm for guesses Δ̃, m̃.
func New(deltaHat int, mHat int64) local.Algorithm {
	dL, mL := lineParams(deltaHat, mHat)
	return wrap(fmt.Sprintf("edgecolor(Δ̃=%d)", deltaHat),
		lift.LineGraph(coloralgo.DeltaPlusOne(dL, mL), nil))
}

// wrap converts the lift's per-port []any output into a []int of colors.
func wrap(name string, inner local.Algorithm) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: name,
		NewNode: func(info local.Info) local.Node {
			return &node{deg: info.Degree, inner: inner.New(info)}
		},
	}
}

type node struct {
	deg    int
	inner  local.Node
	colors []int
}

func (n *node) Round(r int, recv []local.Message) ([]local.Message, bool) {
	send, done := n.inner.Round(r, recv)
	if done {
		n.colors = make([]int, n.deg)
		if outs, ok := n.inner.Output().([]any); ok {
			for p, o := range outs {
				if c, okC := o.(int); okC {
					n.colors[p] = c
				}
			}
		}
	}
	return send, done
}

func (n *node) Output() any { return n.colors }

var _ local.Node = (*node)(nil)
