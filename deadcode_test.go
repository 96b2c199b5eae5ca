package unilocal

// The dead-code gate: every package-level identifier and every method
// declared under internal/ must be used by some non-test file of this
// module or of the perfbench module, unless deadCodeAllowed names it with a
// reason. Test files are never parsed, so an identifier that only tests
// reach is reported; the fix is to delete it, move it into a _test.go file
// or the graphtest package, or allowlist it here.
//
// A use inside the identifier's own declaration (a recursive call, a type
// naming itself, a method's receiver) does not count. A method also counts
// as used when its name is a method of an interface that a checked package
// declares, imports or writes as a literal: calls through an interface do
// not name the concrete method. Struct fields are out of scope.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadCodeAllowed lists the internal identifiers that may lack a non-test
// use. A key is "<dir>.<Name>", "<dir>.<Type>.<Method>" or a bare package
// directory, which covers the whole package. Every entry must still match a
// finding, so the list cannot outlive what it excuses.
var deadCodeAllowed = map[string]string{
	"internal/digest":                      "test support: the digest tables of the engine, transformer, lift and corpus tests",
	"internal/fabric/faultinject":          "test support: fault-injecting transports for the fabric chaos tests",
	"internal/graph/graphtest":             "test support: explicit derived graphs and fixtures the lift and transformer tests compare against",
	"internal/engines.ArgNone":             "the iota zero value of ArgKind, used by leaving Row.Arg unset",
	"internal/core.UniformWeaklyDominated": "Theorem 3's construction; whether it ships or goes is ROADMAP item 10",
	"internal/scenario.Families":           "serve's TestGraphSourceByteIdentity loads every family through it",
	"internal/bitset.Set.Contains":         "internal/local's tests assert frontier membership through it",
	"internal/bitset.Set.Count":            "internal/local's tests assert frontier sizes through it",
}

func TestShippedIdentifiersHaveShippedCallers(t *testing.T) {
	findings, err := deadCode(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unexcused(findings, deadCodeAllowed) {
		t.Error(f)
	}
}

// unexcused returns the findings no allowlist entry covers, followed by one
// line per allowlist entry that covers no finding. An entry covers a
// finding when it equals it or a dot- or slash-separated prefix of it.
func unexcused(findings []string, allowed map[string]string) []string {
	hit := make(map[string]bool)
	var out []string
	for _, f := range findings {
		excused := false
		for key := range allowed {
			if f == key || strings.HasPrefix(f, key+".") || strings.HasPrefix(f, key+"/") {
				hit[key] = true
				excused = true
			}
		}
		if !excused {
			out = append(out, f+" has no use outside test files: delete it, move it to a test file or graphtest, or allowlist it with a reason")
		}
	}
	var stale []string
	for key := range allowed {
		if !hit[key] {
			stale = append(stale, "allowlist entry "+key+" matches nothing: remove it")
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

// deadCode type-checks the non-test files of every package under root (the
// nested modules included) and returns, sorted, the identifiers declared
// under root/internal that no non-test file uses, as "<dir>.<Name>" or
// "<dir>.<Type>.<Method>".
func deadCode(root string) ([]string, error) {
	pkgs, err := findPackages(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		pkgs:   pkgs,
		std:    importer.ForCompiler(fset, "source", nil),
		done:   make(map[string]*types.Package),
		uses:   make(map[types.Object]bool),
		ifaces: map[string]bool{"Error": true}, // the universe's error
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	var out []string
	for _, path := range paths {
		p := pkgs[path]
		if p.dir != "internal" && !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := l.done[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name != "_" && name != "init" && !l.uses[obj] {
				out = append(out, p.dir+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				m := named.Method(i)
				if !l.uses[m] && !l.ifaces[m.Name()] {
					out = append(out, p.dir+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// srcPackage is one directory of non-test Go files.
type srcPackage struct {
	dir   string // slash-separated, relative to the scanned root
	files []string
}

// findPackages maps the import path of every package under root to its
// files. A go.mod file starts a module, whose path prefixes the import
// paths below it; testdata and dot directories are skipped.
func findPackages(root string) (map[string]*srcPackage, error) {
	mods := make(map[string]string) // module directory -> module path
	pkgs := make(map[string]*srcPackage)
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if mods[rel] = modulePath(data); mods[rel] == "" {
				return fmt.Errorf("%s/go.mod: no module line", rel)
			}
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		} else if err != nil {
			return err
		}
		// The innermost enclosing module names the package.
		var ip string
		for m, sub := rel, ""; ip == ""; m = path.Dir(m) {
			if mp, ok := mods[m]; ok {
				ip = mp + sub
			} else if m == "." {
				return fmt.Errorf("%s: outside every module", rel)
			} else {
				sub = "/" + path.Base(m) + sub
			}
		}
		p := &srcPackage{dir: rel}
		for _, f := range bp.GoFiles {
			p.files = append(p.files, filepath.Join(dir, f))
		}
		pkgs[ip] = p
		return nil
	})
	return pkgs, err
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// loader type-checks the scanned packages on demand, in import order, and
// records which objects their files use and which method names their
// interfaces carry. Everything else comes from the standard library's
// source importer.
type loader struct {
	fset   *token.FileSet
	pkgs   map[string]*srcPackage
	std    types.Importer
	done   map[string]*types.Package
	uses   map[types.Object]bool
	ifaces map[string]bool
}

func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.done[path]; ok {
		return pkg, nil
	}
	p, ok := l.pkgs[path]
	if !ok {
		pkg, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		l.done[path] = pkg
		l.addInterfaces(pkg.Scope())
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range p.files {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p.dir, err)
	}
	l.done[path] = pkg
	l.addInterfaces(pkg.Scope())
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			l.addMethods(it)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			l.recordDeclUses(decl, info)
		}
	}
	return pkg, nil
}

// recordDeclUses marks what decl uses, except, per function or spec, the
// objects it declares itself and a method's receiver type.
func (l *loader) recordDeclUses(decl ast.Decl, info *types.Info) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		// d.Recv is not inspected: a receiver does not use its type.
		self := []types.Object{info.Defs[d.Name]}
		l.recordUses(d.Type, self, info)
		if d.Body != nil {
			l.recordUses(d.Body, self, info)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var self []types.Object
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self = append(self, info.Defs[s.Name])
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self = append(self, info.Defs[n])
				}
			}
			l.recordUses(spec, self, info)
		}
	}
}

// recordUses marks every object node uses, except those in self.
func (l *loader) recordUses(node ast.Node, self []types.Object, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj != nil && !slices.Contains(self, obj) {
			l.uses[obj] = true
		}
		return true
	})
}

func (l *loader) addInterfaces(scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				l.addMethods(it)
			}
		}
	}
}

func (l *loader) addMethods(it *types.Interface) {
	for i := range it.NumMethods() {
		l.ifaces[it.Method(i).Name()] = true
	}
}

// TestDeadCodeGateOnPlantedModule runs the analysis over a tiny module
// holding one planted instance of each kind of dead code, next to uses that
// must not be reported: a call from a nested module, a call from a test
// file only (which is dead), and a method reached only through fmt.Stringer.
func TestDeadCodeGateOnPlantedModule(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.24\n",
		"main.go": `package main

import (
	"fmt"

	"example.com/m/internal/p"
)

func main() { fmt.Println(p.New()) }
`,
		"internal/p/p.go": `package p

type T struct{}

func New() *T { return &T{} }

func (*T) String() string { return "t" }

func (*T) unused() {}

func Unused() {}

func OnlyTested() {}

func FromNested() {}

func recurse(n int) int {
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}
`,
		"internal/p/p_test.go": "package p\n\nimport \"testing\"\n\nfunc TestP(t *testing.T) { OnlyTested() }\n",
		"nested/go.mod":        "module example.com/m/nested\n\ngo 1.24\n",
		"nested/main.go":       "package main\n\nimport \"example.com/m/internal/p\"\n\nfunc main() { p.FromNested() }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := deadCode(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/p.OnlyTested", "internal/p.T.unused", "internal/p.Unused", "internal/p.recurse"}
	if !slices.Equal(findings, want) {
		t.Fatalf("findings = %q, want %q", findings, want)
	}
	got := unexcused(findings, map[string]string{
		"internal/p.OnlyTested": "a reason",
		"internal/p.recurse":    "a reason",
		"internal/p.Gone":       "deleted since",
	})
	if len(got) != 3 || !strings.HasPrefix(got[0], "internal/p.T.unused ") ||
		!strings.HasPrefix(got[1], "internal/p.Unused ") || !strings.HasPrefix(got[2], "allowlist entry internal/p.Gone ") {
		t.Fatalf("unexcused = %q", got)
	}
}
