package scenario

import (
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
)

// familyImages pins the content-addressed store image every family's
// default spec (see defaultFamilySpec) writes. graph.ImageName hashes the
// corpus key, so a family whose key drifts (renamed family string, reordered
// parameters, a different huge-geometric radius) would orphan every image
// already on disk; this table catches that. ba and huge-ba share one key by
// design: huge-ba is ba at scale, so both name the same image.
var familyImages = map[string]string{
	"ba":             "c89622783fbbe676f65795466cd53c429e80dd4c.csr",
	"caterpillar":    "022d27f8ea91e541a609688f5f5c3248d074c77f.csr",
	"clique":         "c5b357420f2f233f2b152f7e2d5ced07e884007b.csr",
	"cycle":          "a8af1768367aa4bac2bb75a80a64f088b580b03f.csr",
	"forest":         "2fed771b4ab068bf6097839578a8399ca61ca449.csr",
	"geometric":      "d74f19a542feac7312b09d7a801cb3384b801b6b.csr",
	"gnp":            "13cd73fbc2ba21fcbc4399e321918395dd7e14a8.csr",
	"grid":           "d03b9e2cfc13454da2e1a4461eb5decedcb3d338.csr",
	"huge-ba":        "c89622783fbbe676f65795466cd53c429e80dd4c.csr",
	"huge-geometric": "acfc6044dbfd670282170a544f9e1dab60c72a58.csr",
	"hypercube":      "c853ae81f0a7ae47092e0af8ed1bf9f260af131f.csr",
	"lollipop":       "240084c0d14747a4f561c3e2e5ae589bfee8d791.csr",
	"path":           "dff5034a4e1549ab6e9f04b4126cde67074144e2.csr",
	"regular":        "6e5e097b153ac0f7756a739ead312b28702f5963.csr",
	"smallworld":     "a241b509f0f2b3872edcd2e3d9100a004bfbe2a8.csr",
	"star":           "4568a2e736665e9ef71dcdb3511d35090e0645dd.csr",
	"torus":          "08ddaf344ff7fcb7335dda388f1ff847b881daf1.csr",
	"tree":           "28a7953da97b035d51157d47943c96e84073ef64.csr",
}

// defaultFamilySpec is cmd/graphgen's flag defaults (n=64, d=4, k=2,
// p=0.05, r=0.1, beta=0.1, seed=1; an 8x8 grid or torus) normalized for
// family, a small spec every family accepts.
func defaultFamilySpec(family string) GraphSpec {
	gs := GraphSpec{Family: family, N: 64, D: 4, K: 2, P: 0.05, Radius: 0.1, Beta: 0.1, Seed: 1}
	if family == "grid" || family == "torus" {
		gs.Rows, gs.Cols = 8, 8
	}
	return Normalize(gs)
}

// TestFamilyStoreImagesAndSizes builds every family's default spec through
// a corpus backed by a fresh store and pins the image it writes, the exact
// node estimate, and the edge estimate as an upper bound.
func TestFamilyStoreImagesAndSizes(t *testing.T) {
	fams := Families()
	if len(fams) != len(familyImages) {
		t.Fatalf("%d families, %d golden images", len(fams), len(familyImages))
	}
	for _, f := range fams {
		gs := defaultFamilySpec(f.Name)
		store, err := graph.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c := graph.NewCorpus()
		c.AttachStore(store)
		g, err := gs.Build(c)
		if err != nil {
			t.Fatalf("%s: %v", gs, err)
		}
		images, err := store.Images()
		if err != nil {
			t.Fatal(err)
		}
		if len(images) != 1 {
			t.Fatalf("%s: store holds %d images, want 1", gs, len(images))
		}
		img := images[0]
		if want, ok := familyImages[f.Name]; !ok || img.Name != want {
			t.Errorf("%s: image %s, want %s", gs, img.Name, want)
		}
		if img.Nodes != int64(g.N()) || img.Edges != int64(g.NumEdges()) {
			t.Errorf("%s: image holds %d nodes, %d edges; graph has %d, %d", gs, img.Nodes, img.Edges, g.N(), g.NumEdges())
		}
		if got := gs.ApproxNodes(); got != g.N() {
			t.Errorf("%s: ApproxNodes = %d, built %d nodes", gs, got, g.N())
		}
		if got := gs.ApproxEdges(); got < g.NumEdges() {
			t.Errorf("%s: ApproxEdges = %d, below the %d edges built", gs, got, g.NumEdges())
		}
	}
}
