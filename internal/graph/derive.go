package graph

import "fmt"

// PackIDs packs two identities (each in [1, MaxID]) into a single identity
// for a derived-graph node. The packing is order-preserving lexicographically
// and injective. Inputs outside [1, MaxID] panic: the runtime lifts pack
// identities deep inside a simulation with no error path, and a loud failure
// beats two distinct virtual nodes silently colliding on one identity (the
// scenario layer rejects such graph/algorithm pairings at validation time).
func PackIDs(a, b int64) int64 {
	if a < 1 || a > MaxID || b < 1 || b > MaxID {
		panic(fmt.Sprintf("graph: PackIDs(%d, %d) outside [1, %d]", a, b, MaxID))
	}
	return a<<31 | b
}

// BFSDistances returns the distances from src to every node (-1 when
// unreachable).
func BFSDistances(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
