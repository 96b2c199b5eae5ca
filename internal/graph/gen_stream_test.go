package graph

import "testing"

// requireSameGraph asserts two graphs are identical in every observable
// field, including the derived CSR tables the engine addresses directly.
func requireSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.N() != want.N() || got.NumEdges() != want.NumEdges() ||
		got.MaxDegree() != want.MaxDegree() || got.MaxIDValue() != want.MaxIDValue() {
		t.Fatalf("shape mismatch: got n=%d m=%d Δ=%d maxID=%d, want n=%d m=%d Δ=%d maxID=%d",
			got.N(), got.NumEdges(), got.MaxDegree(), got.MaxIDValue(),
			want.N(), want.NumEdges(), want.MaxDegree(), want.MaxIDValue())
	}
	for u := 0; u < want.N(); u++ {
		if got.ID(u) != want.ID(u) {
			t.Fatalf("node %d: id %d, want %d", u, got.ID(u), want.ID(u))
		}
		if got.AdjOffset(u) != want.AdjOffset(u) {
			t.Fatalf("node %d: adj offset %d, want %d", u, got.AdjOffset(u), want.AdjOffset(u))
		}
		gn, wn := got.Neighbors(u), want.Neighbors(u)
		if len(gn) != len(wn) {
			t.Fatalf("node %d: degree %d, want %d", u, len(gn), len(wn))
		}
		for k := range wn {
			if gn[k] != wn[k] {
				t.Fatalf("node %d port %d: neighbour %d, want %d", u, k, gn[k], wn[k])
			}
			if got.BackPort(u, k) != want.BackPort(u, k) {
				t.Fatalf("node %d port %d: back port %d, want %d", u, k, got.BackPort(u, k), want.BackPort(u, k))
			}
		}
		gr, wr := got.ReverseEdges(u), want.ReverseEdges(u)
		for k := range wr {
			if gr[k] != wr[k] {
				t.Fatalf("node %d port %d: reverse edge %d, want %d", u, k, gr[k], wr[k])
			}
		}
	}
}

func TestStreamingGeneratorsRejectBadParams(t *testing.T) {
	if _, err := PreferentialAttachment(5, 0, 1); err == nil {
		t.Error("ba m=0: want error")
	}
	if _, err := PreferentialAttachment(5, 5, 1); err == nil {
		t.Error("ba m=n: want error")
	}
	if _, err := RandomGeometric(5, 0, 1); err == nil {
		t.Error("geometric r=0: want error")
	}
	if _, err := RandomGeometric(5, 1.5, 1); err == nil {
		t.Error("geometric r>1: want error")
	}
}
