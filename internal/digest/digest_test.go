package digest

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// recorder is a T that collects the failures a table reports.
type recorder struct {
	mu   sync.Mutex
	errs []string
}

func (r *recorder) Helper()             {}
func (r *recorder) Logf(string, ...any) {}
func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
}

func (r *recorder) Errorf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs = append(r.errs, format)
}

func (r *recorder) failed() bool { return len(r.errs) > 0 }

func baseResult() *local.Result {
	return &local.Result{
		Outputs:    []any{1, true, nil},
		HaltRounds: []int{2, 0, 3},
		Rounds:     4,
		Messages:   9,
		Steps:      7,
	}
}

// TestOfSeparatesFields changes one field at a time: every field but
// Messages must move the behaviour hash alone, Messages the traffic hash
// alone.
func TestOfSeparatesFields(t *testing.T) {
	base := Of(baseResult())
	for name, change := range map[string]func(r *local.Result){
		"output value":     func(r *local.Result) { r.Outputs[0] = 2 },
		"output type":      func(r *local.Result) { r.Outputs[0] = int64(1) },
		"output nil":       func(r *local.Result) { r.Outputs[1] = nil },
		"halt round":       func(r *local.Result) { r.HaltRounds[1] = 1 },
		"rounds":           func(r *local.Result) { r.Rounds = 5 },
		"steps":            func(r *local.Result) { r.Steps = 8 },
		"one node fewer":   func(r *local.Result) { r.Outputs, r.HaltRounds = r.Outputs[:2], r.HaltRounds[:2] },
		"outputs reversed": func(r *local.Result) { r.Outputs[0], r.Outputs[2] = r.Outputs[2], r.Outputs[0] },
	} {
		res := baseResult()
		change(res)
		d := Of(res)
		if d.Behaviour == base.Behaviour {
			t.Errorf("%s: behaviour hash unchanged", name)
		}
		if d.Traffic != base.Traffic {
			t.Errorf("%s: traffic hash moved", name)
		}
	}
	res := baseResult()
	res.Messages++
	if d := Of(res); d.Traffic == base.Traffic || d.Behaviour != base.Behaviour {
		t.Errorf("messages: %v, base %v; want only the traffic hash moved", d, base)
	}
}

// writeTable commits a table of the given entries to a temporary file.
func writeTable(t *testing.T, entries map[string]string) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "testdata", "t.json")
	withUpdate(t, func() {
		tab := Open[string](t, file)
		for name, v := range entries {
			tab.Add(name, v)
		}
		tab.Close()
	})
	return file
}

// withUpdate runs f as if -update were given.
func withUpdate(t *testing.T, f func()) {
	t.Helper()
	saved := *update
	*update = true
	defer func() { *update = saved }()
	f()
}

func TestTableMatches(t *testing.T) {
	file := writeTable(t, map[string]string{"a": "1", "b": "2"})
	var r recorder
	tab := Open[string](&r, file)
	tab.Add("b", "2")
	tab.Add("a", "1")
	tab.Close()
	if r.failed() {
		t.Errorf("a table equal to the live values failed: %v", r.errs)
	}
}

func TestTableFailures(t *testing.T) {
	file := writeTable(t, map[string]string{"a": "1", "b": "2"})
	for name, adds := range map[string][][2]string{
		"changed value":   {{"a", "1"}, {"b", "3"}},
		"entry, no case":  {{"a", "1"}},
		"case, no entry":  {{"a", "1"}, {"b", "2"}, {"c", "3"}},
		"duplicate name":  {{"a", "1"}, {"b", "2"}, {"b", "2"}},
		"duplicate entry": {{"a", "1"}, {"a", "1"}, {"b", "2"}},
	} {
		var r recorder
		tab := Open[string](&r, file)
		for _, a := range adds {
			tab.Add(a[0], a[1])
		}
		tab.Close()
		if !r.failed() {
			t.Errorf("%s: the table passed", name)
		}
	}
	var r recorder
	Open[string](&r, filepath.Join(t.TempDir(), "missing.json"))
	if !r.failed() {
		t.Error("a missing table file passed")
	}
}

// TestTableUpdateRejectsDuplicates checks that rewriting a table still
// refuses two cases of one name, and writes one sorted entry per case.
func TestTableUpdateRejectsDuplicates(t *testing.T) {
	file := filepath.Join(t.TempDir(), "t.json")
	var r recorder
	withUpdate(t, func() {
		tab := Open[string](&r, file)
		tab.Add("b", "2")
		tab.Add("a", "1")
		tab.Add("b", "2")
		tab.Close()
	})
	if len(r.errs) != 1 {
		t.Errorf("%d failures, want the one duplicate", len(r.errs))
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"a\": \"1\",\n  \"b\": \"2\"\n}\n"; string(raw) != want {
		t.Errorf("wrote %q, want %q", raw, want)
	}
}

// orderAlgo's nodes output the order in which the engine stepped them,
// drawn from one counter per algorithm value: they break the model by
// sharing state, so two runs of one value never agree.
func orderAlgo() local.Algorithm {
	var counter atomic.Int64
	return local.AlgorithmFunc{
		AlgoName: "order",
		NewNode: func(local.Info) local.Node {
			return &orderNode{counter: &counter}
		},
	}
}

type orderNode struct {
	counter *atomic.Int64
	order   int64
}

func (n *orderNode) Round(int, []local.Message) ([]local.Message, bool) {
	n.order = n.counter.Add(1)
	return nil, true
}

func (n *orderNode) Output() any { return n.order }

// TestRunVariantsMustAgree runs orderAlgo under two variants, which must
// fail; one run of a fresh value is recorded, and a rerun of another fresh
// value matches the table written from it.
func TestRunVariantsMustAgree(t *testing.T) {
	g := graph.Path(64)
	var r recorder
	runCase(&r, Case{Name: "order", Graph: g, Algo: orderAlgo()}, Workers(1, 4))
	if !r.failed() || !strings.Contains(r.errs[0], "gave") {
		t.Errorf("disagreeing variants passed: %v", r.errs)
	}
	file := filepath.Join(t.TempDir(), "t.json")
	t.Run("record", func(t *testing.T) {
		withUpdate(t, func() {
			Run(t, file, []Case{{Name: "order", Graph: g, Algo: orderAlgo(), Opts: local.Options{Workers: 1}}})
		})
	})
	t.Run("rerun", func(t *testing.T) {
		Run(t, file, []Case{{Name: "order", Graph: g, Algo: orderAlgo()}}, Workers(1)...)
	})
}

// TestRunPartialLeavesTable runs one case of a two-entry table, as a -run
// pattern would: the missing entry is not reported, and -update refuses to
// write a table that would lose it.
func TestRunPartialLeavesTable(t *testing.T) {
	file := writeTable(t, map[string]string{"a": "1", "b": "2"})
	for _, rewrite := range []bool{false, true} {
		var r recorder
		saved := *update
		*update = rewrite
		tab := Open[string](&r, file)
		*update = saved
		tab.Add("a", "1")
		tab.partial = true
		tab.Close()
		if r.failed() == !rewrite {
			t.Errorf("rewrite %v: failures %v", rewrite, r.errs)
		}
	}
	if raw, err := os.ReadFile(file); err != nil || !strings.Contains(string(raw), `"b"`) {
		t.Errorf("the table lost its entry: %q, %v", raw, err)
	}
}
