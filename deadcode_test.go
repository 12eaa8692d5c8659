package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the production functions that may stay with no
// production caller, keyed by types.Func.FullName, each with its reason.
var testOnlyAllowed = map[string]string{
	"repro/internal/cpumodel.WithinNoise": "the CPI confidence intervals planned in ROADMAP.md mark the table comparisons it cannot separate",
	"(*repro/internal/gspn.Net).Inhibit":  "the gated BenchmarkSimStep and BenchmarkSimStepBanks nets and FuzzSimEquivalence build inhibitor arcs",
}

// TestNoTestOnlyFunctions fails for every function or method declared in
// a non-test file of module repro that no non-test file of repro or of
// the benchmark module (bench/) uses. Exempt are main and init, a
// method through which its receiver satisfies an interface of a loaded
// package or error, the exported names of the iram facade, and
// testOnlyAllowed. Delete such a function with the tests of only it, or
// move it into its package's _test.go files when a test needs it as a
// probe.
func TestNoTestOnlyFunctions(t *testing.T) {
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	for _, m := range []struct{ dir, path string }{{".", "repro"}, {"bench", "repro/bench"}} {
		if err := l.scan(m.dir, m.path); err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(l.files))
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			collect(q)
		}
	}
	for _, p := range l.pkgs {
		collect(p)
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	for _, p := range paths {
		if strings.HasPrefix(p+"/", "repro/bench/") {
			continue // the benchmark module only uses
		}
		for _, f := range l.files[p] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" || (fd.Name.Name == "main" && fd.Recv == nil) {
					continue
				}
				fn := l.info.Defs[fd.Name].(*types.Func)
				switch {
				case used[fn], testOnlyAllowed[fn.FullName()] != "":
				case p == "repro/iram" && fn.Exported():
				case fd.Recv != nil && satisfies(fn):
				default:
					pos := fset.Position(fd.Name.Pos())
					t.Errorf("%s:%d %s: no production code uses it; delete it, or move it into the tests that call it",
						pos.Filename, pos.Line, fn.FullName())
				}
			}
		}
	}
}

// loader type-checks the packages of the scanned modules from source,
// recording every use in one Info, and imports everything else
// (the standard library) through the source importer.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
}

// scan records every directory under root that holds a non-test Go
// file, as the go tool sees the module: testdata, _ and dot
// directories and nested modules are skipped.
func (l *loader) scan(root, modpath string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		ip := modpath
		if rel, _ := filepath.Rel(root, path); rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			ok, err := build.Default.MatchFile(path, n)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(path, n), nil, 0)
			if err != nil {
				return err
			}
			l.files[ip] = append(l.files[ip], f)
		}
		return nil
	})
}

// Import type-checks a scanned package on first use and hands any other
// path to the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if _, ok := l.files[path]; !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, l.files[path], l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}
