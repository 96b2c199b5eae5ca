// Package digest is the test harness of the run-digest tables, the
// differential oracle of the engine, Compose, the transformers, the lifts
// and the graph generators. A test builds a fixed list of cases, hashes what
// each case produced and compares the hashes with a table committed under
// its package's testdata/. Regenerate a table only when a change is meant
// to alter what it pins, one package at a time (the flag is defined only in
// the test binaries that import this package):
//
//	go test ./internal/local -run TestComposeRunDigests -update
//
// Only tests import this package.
package digest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

var update = flag.Bool("update", false, "rewrite the digest tables under testdata/ from the live code")

// Digest is the table entry of one run: a behaviour hash over Outputs,
// HaltRounds, Rounds and Steps, and a traffic hash over Messages. They are
// kept apart so a change of the messages a protocol sends (the
// α-synchronizer's envelopes) can move the traffic hash while the behaviour
// hash pins everything else.
type Digest struct {
	Behaviour string `json:"behaviour"`
	Traffic   string `json:"traffic"`
}

func (d Digest) String() string {
	return fmt.Sprintf("behaviour %.12s traffic %.12s", d.Behaviour, d.Traffic)
}

// Of hashes every deterministic field of a Result. Each output is hashed
// with its dynamic type, so the same value under another type is another
// digest.
func Of(res *local.Result) Digest {
	h := sha256.New()
	for u, o := range res.Outputs {
		fmt.Fprintf(h, "%d %T %v\n", u, o, o)
	}
	fmt.Fprintf(h, "halt %v\nrounds %d steps %d\n", res.HaltRounds, res.Rounds, res.Steps)
	traffic := sha256.Sum256(fmt.Appendf(nil, "messages %d\n", res.Messages))
	return Digest{Behaviour: hex.EncodeToString(h.Sum(nil)), Traffic: hex.EncodeToString(traffic[:])}
}

// T is the part of testing.TB a table reports through.
type T interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
}

// Table is one committed table, case name to value. Add is safe for
// concurrent use.
type Table[V comparable] struct {
	t       T
	file    string
	rewrite bool         // -update was given at Open
	want    map[string]V // nil when rewriting

	mu      sync.Mutex
	got     map[string]V
	partial bool // a -run pattern left some of Run's cases out
}

// Open loads the table in file, a path relative to the test's package
// directory. Under -update it starts an empty table that Close writes
// there.
func Open[V comparable](t T, file string) *Table[V] {
	t.Helper()
	tab := &Table[V]{t: t, file: file, rewrite: *update, got: make(map[string]V)}
	if tab.rewrite {
		return tab
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v", err)
		return tab
	}
	if err := json.Unmarshal(raw, &tab.want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return tab
}

// Add records case name's value and compares it with the table. A name
// added twice is an error: two cases would share one entry.
func (tab *Table[V]) Add(name string, v V) {
	tab.t.Helper()
	tab.add(tab.t, name, v)
}

// add is Add reporting through t, the subtest of the case.
func (tab *Table[V]) add(t T, name string, v V) {
	t.Helper()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if _, dup := tab.got[name]; dup {
		t.Errorf("%s: duplicate case name", name)
		return
	}
	tab.got[name] = v
	if tab.rewrite {
		return
	}
	if want, ok := tab.want[name]; !ok {
		t.Errorf("%s: %v, not in %s", name, v, tab.file)
	} else if v != want {
		t.Errorf("%s: %v, table %v", name, v, want)
	}
}

// Close reports every table entry no case was added for; under -update it
// writes the table instead. When a -run pattern left cases out, Close
// checks nothing more, and refuses to write a table that would lose their
// entries.
func (tab *Table[V]) Close() {
	tab.t.Helper()
	if tab.partial {
		if tab.rewrite {
			tab.t.Fatalf("%s: -update needs every case; run the whole test", tab.file)
		}
		return
	}
	if tab.rewrite {
		raw, err := json.MarshalIndent(tab.got, "", "  ")
		if err != nil {
			tab.t.Fatalf("%v", err)
			return
		}
		if err := os.MkdirAll(filepath.Dir(tab.file), 0o755); err != nil {
			tab.t.Fatalf("%v", err)
			return
		}
		if err := os.WriteFile(tab.file, append(raw, '\n'), 0o644); err != nil {
			tab.t.Fatalf("%v", err)
			return
		}
		tab.t.Logf("wrote %d digests to %s", len(tab.got), tab.file)
		return
	}
	var stale []string
	for name := range tab.want {
		if _, ok := tab.got[name]; !ok {
			stale = append(stale, name)
		}
	}
	slices.Sort(stale)
	for _, name := range stale {
		tab.t.Errorf("%s: in %s but no longer a case", name, tab.file)
	}
}

// Case is one run of a table.
type Case struct {
	Name  string
	Graph *graph.Graph
	Algo  local.Algorithm
	Opts  local.Options
}

// Variant is one engine configuration every case of a table must agree
// under.
type Variant struct {
	Name    string
	Workers int
	// Permute replaces the case's delivery permutation when it has none.
	Permute *local.Permute
}

// Workers returns one variant per engine worker count.
func Workers(counts ...int) []Variant {
	vs := make([]Variant, len(counts))
	for i, w := range counts {
		vs[i] = Variant{Name: fmt.Sprintf("w%d", w), Workers: w}
	}
	return vs
}

// Run checks cases against the table in file, a path relative to the
// test's package directory, and under -update rewrites it. Each case is a
// parallel subtest of t named after the case, and runs under every
// variant; -short runs the first variant only, unless the table is being
// rewritten. A case's variants must all give one digest, which is the
// case's entry. With no variants a case runs once under its own options.
// The table is closed once every case has finished.
func Run(t *testing.T, file string, cases []Case, variants ...Variant) {
	t.Helper()
	tab := Open[Digest](t, file)
	if testing.Short() && !tab.rewrite && len(variants) > 1 {
		variants = variants[:1]
	}
	t.Cleanup(tab.Close)
	for _, c := range cases {
		ran := false
		t.Run(c.Name, func(t *testing.T) {
			ran = true
			t.Parallel()
			if d, ok := runCase(t, c, variants); ok {
				tab.add(t, c.Name, d)
			}
		})
		if !ran {
			tab.partial = true
		}
	}
}

// runCase runs c under each variant and reports whether they agreed.
func runCase(t T, c Case, variants []Variant) (Digest, bool) {
	if len(variants) == 0 {
		variants = []Variant{{Workers: c.Opts.Workers}}
	}
	var first Digest
	for i, v := range variants {
		opts := c.Opts
		opts.Workers = v.Workers
		if opts.Permute == nil {
			opts.Permute = v.Permute
		}
		res, err := local.Run(c.Graph, c.Algo, opts)
		if err != nil {
			t.Errorf("%s/%s: %v", c.Name, v.Name, err)
			return Digest{}, false
		}
		d := Of(res)
		if i == 0 {
			first = d
		} else if d != first {
			t.Errorf("%s/%s: %v, %s gave %v", c.Name, v.Name, d, variants[0].Name, first)
			return Digest{}, false
		}
	}
	return first, true
}
