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

// testOnlyAllowed names the production code that may stay with no
// production use, each with its reason. Functions and methods are keyed
// by types.Func.FullName, package-level declarations by package path and
// name, and struct fields by package path, struct type and field name.
var testOnlyAllowed = map[string]string{
	"repro/internal/cpumodel.WithinNoise": "the CPI confidence intervals planned in ROADMAP.md mark the table comparisons it cannot separate",
	"(*repro/internal/gspn.Net).Inhibit":  "the gated BenchmarkSimStep and BenchmarkSimStepBanks nets and FuzzSimEquivalence build inhibitor arcs",
}

// TestNoTestOnlyFunctions fails for production code of module repro
// that only tests reach. It type-checks the non-test files of repro and
// of the benchmark module (bench/) once; production means those files.
// Each subtest reports file:line and the name:
//   - functions: a function or method that production never uses. A
//     method through which its receiver satisfies an interface of a
//     loaded package or error is exempt if production converts a value
//     of the receiver type to an interface type;
//   - declarations: a package-level type, constant or variable that
//     production uses only inside its own declaration or, for a type,
//     inside its own methods;
//   - fields: an unexported struct field that production never reads.
//     Assigning, updating, incrementing and a composite-literal key
//     write; everything else reads. Embedded and blank fields are
//     exempt, and so are the fields of a struct type used as a map key
//     or compared with == or !=.
//
// Everywhere exempt are main and init, blank names, the exported names
// of the iram facade and testOnlyAllowed. Delete what a subtest reports
// with the tests of only it, or move it into the tests that use it as a
// probe.
func TestNoTestOnlyFunctions(t *testing.T) {
	l := &loader{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, m := range []struct{ dir, path string }{{".", "repro"}, {"bench", "repro/bench"}} {
		if err := l.scan(m.dir, m.path); err != nil {
			t.Fatal(err)
		}
	}
	for p := range l.files {
		l.paths = append(l.paths, p)
	}
	sort.Strings(l.paths)
	for _, p := range l.paths {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	report := func(t *testing.T, found []finding, what string) {
		for _, f := range found {
			if testOnlyAllowed[f.name] != "" {
				continue
			}
			pos := l.fset.Position(f.pos)
			t.Errorf("%s:%d %s: %s", pos.Filename, pos.Line, f.name, what)
		}
	}
	t.Run("functions", func(t *testing.T) {
		report(t, l.functions(), "no production code uses it; delete it, or move it into the tests that call it")
	})
	t.Run("declarations", func(t *testing.T) {
		report(t, l.declarations(), "no production code outside it uses it; delete it, or move it into the tests that use it")
	})
	t.Run("fields", func(t *testing.T) {
		report(t, l.fields(), "no production code reads it; delete it, or compute it in the tests that read it")
	})
}

// finding is one piece of production code that only tests reach, named
// by its testOnlyAllowed key.
type finding struct {
	pos  token.Pos
	name string
}

// functions reports the functions and methods of repro that production
// never uses.
func (l *loader) functions() []finding {
	used := map[*types.Func]bool{}
	for _, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	converted := l.converted()
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
	// viaInterface reports whether an interface call can reach fn:
	// production converts its receiver type to an interface, and the
	// receiver satisfies an interface with fn's name.
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := types.Unalias(recv).(*types.Named); !ok || !converted[named.Origin().Obj()] {
			return false
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

	var found []finding
	l.own(func(p string, f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" || (fd.Name.Name == "main" && fd.Recv == nil) {
				continue
			}
			fn := l.info.Defs[fd.Name].(*types.Func)
			switch {
			case used[fn]:
			case p == "repro/iram" && fn.Exported():
			case fd.Recv != nil && viaInterface(fn):
			default:
				found = append(found, finding{fd.Name.Pos(), fn.FullName()})
			}
		}
	})
	return found
}

// converted returns the named types of which production converts a
// value to an interface type: as a call argument (variadic included),
// by assignment or var initialiser, as a return value, a composite
// literal element or a channel send, or explicitly. A struct's embedded
// types count with it, since their methods are promoted.
func (l *loader) converted() map[*types.TypeName]bool {
	conv := map[*types.TypeName]bool{}
	var mark func(types.Type)
	mark = func(t types.Type) {
		t = types.Unalias(t)
		if ptr, ok := t.(*types.Pointer); ok {
			t = types.Unalias(ptr.Elem())
		}
		named, ok := t.(*types.Named)
		if !ok || conv[named.Origin().Obj()] {
			return
		}
		conv[named.Origin().Obj()] = true
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Embedded() {
					mark(st.Field(i).Type())
				}
			}
		}
	}
	// to records the conversion of each value to the type at its index,
	// or of a single tuple-valued call's results.
	to := func(target func(i int) types.Type, values []ast.Expr) {
		if len(values) == 1 {
			if tuple, ok := l.info.TypeOf(values[0]).(*types.Tuple); ok {
				for i := 0; i < tuple.Len(); i++ {
					if t := target(i); t != nil && types.IsInterface(t) {
						mark(tuple.At(i).Type())
					}
				}
				return
			}
		}
		for i, v := range values {
			if t := target(i); t != nil && types.IsInterface(t) {
				if tv := l.info.Types[v]; tv.Type != nil && !tv.IsNil() {
					mark(tv.Type)
				}
			}
		}
	}
	of := func(t types.Type) func(int) types.Type { return func(int) types.Type { return t } }

	l.production(func(_ string, f *ast.File) {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				fun := l.info.Types[n.Fun]
				if fun.IsType() {
					to(of(fun.Type), n.Args)
					break
				}
				if fun.Type == nil {
					break
				}
				sig, ok := fun.Type.Underlying().(*types.Signature)
				if !ok {
					break
				}
				params := sig.Params()
				to(func(i int) types.Type {
					if sig.Variadic() && i >= params.Len()-1 {
						last := params.At(params.Len() - 1).Type()
						if s, ok := last.(*types.Slice); ok && !n.Ellipsis.IsValid() {
							return s.Elem()
						}
						return last
					}
					if i < params.Len() {
						return params.At(i).Type()
					}
					return nil
				}, n.Args)
			case *ast.AssignStmt:
				to(func(i int) types.Type { return l.info.TypeOf(n.Lhs[i]) }, n.Rhs)
			case *ast.ValueSpec:
				if n.Type != nil {
					to(of(l.info.TypeOf(n.Type)), n.Values)
				}
			case *ast.ReturnStmt:
				for i := len(stack) - 1; i >= 0; i-- {
					var sig *types.Signature
					switch fn := stack[i].(type) {
					case *ast.FuncLit:
						sig = l.info.TypeOf(fn).(*types.Signature)
					case *ast.FuncDecl:
						sig = l.info.Defs[fn.Name].Type().(*types.Signature)
					default:
						continue
					}
					to(func(k int) types.Type {
						if k < sig.Results().Len() {
							return sig.Results().At(k).Type()
						}
						return nil
					}, n.Results)
					break
				}
			case *ast.CompositeLit:
				t := l.info.TypeOf(n).Underlying()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem().Underlying()
				}
				for i, e := range n.Elts {
					kv, keyed := e.(*ast.KeyValueExpr)
					switch u := t.(type) {
					case *types.Struct:
						if !keyed {
							to(of(u.Field(i).Type()), []ast.Expr{e})
							continue
						}
						for j := 0; j < u.NumFields(); j++ {
							if u.Field(j).Name() == kv.Key.(*ast.Ident).Name {
								to(of(u.Field(j).Type()), []ast.Expr{kv.Value})
							}
						}
					case *types.Map:
						to(of(u.Key()), []ast.Expr{kv.Key})
						to(of(u.Elem()), []ast.Expr{kv.Value})
					case *types.Slice, *types.Array:
						elem := u.(interface{ Elem() types.Type }).Elem()
						if keyed {
							e = kv.Value
						}
						to(of(elem), []ast.Expr{e})
					}
				}
			case *ast.SendStmt:
				if ch, ok := l.info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					to(of(ch.Elem()), []ast.Expr{n.Value})
				}
			}
			return true
		})
	})
	return conv
}

// declarations reports the package-level types, constants and variables
// of repro that production uses only inside their own declaration or,
// for a type, inside its own methods.
func (l *loader) declarations() []finding {
	used := map[types.Object]bool{}
	uses := func(n ast.Node, own func(types.Object) bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := l.info.Uses[id]; obj != nil && !own(obj) {
					used[obj] = true
				}
			}
			return true
		})
	}
	l.production(func(_ string, f *ast.File) {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				var recv types.Object
				if d.Recv != nil {
					t := l.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					recv = types.Unalias(t).(*types.Named).Origin().Obj()
				}
				uses(d, func(obj types.Object) bool { return obj == recv })
			case *ast.GenDecl:
				for _, s := range d.Specs {
					uses(s, func(obj types.Object) bool { return obj.Pos() >= s.Pos() && obj.Pos() < s.End() })
				}
			}
		}
	})

	var found []finding
	l.own(func(p string, f *ast.File) {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				var names []*ast.Ident
				switch s := s.(type) {
				case *ast.TypeSpec:
					names = []*ast.Ident{s.Name}
				case *ast.ValueSpec:
					names = s.Names
				}
				for _, id := range names {
					obj := l.info.Defs[id]
					if id.Name == "_" || used[obj] || (p == "repro/iram" && obj.Exported()) {
						continue
					}
					found = append(found, finding{id.Pos(), p + "." + id.Name})
				}
			}
		}
	})
	return found
}

// fields reports the unexported struct fields of repro that production
// never reads.
func (l *loader) fields() []finding {
	read := map[*types.Var]bool{}
	compared := map[*types.Var]bool{}
	var compare func(types.Type)
	compare = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i).Origin(); !compared[f] {
					compared[f] = true
					compare(f.Type())
				}
			}
		case *types.Array:
			compare(u.Elem())
		}
	}
	for _, tv := range l.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			compare(m.Key())
		}
	}
	l.production(func(_ string, f *ast.File) {
		written := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					written[ast.Unparen(e)] = true
				}
			case *ast.IncDecStmt:
				written[ast.Unparen(n.X)] = true
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					compare(l.info.TypeOf(n.X))
				}
			case *ast.SelectorExpr:
				if sel := l.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !written[n] {
					read[sel.Obj().(*types.Var).Origin()] = true
				}
			}
			return true
		})
	})

	var found []finding
	l.own(func(p string, f *ast.File) {
		structs := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					structs[st] = n.Name.Name
				}
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					for _, id := range fld.Names {
						v := l.info.Defs[id].(*types.Var)
						if id.Name == "_" || id.IsExported() || read[v] || compared[v] {
							continue
						}
						owner := structs[n]
						if owner == "" {
							owner = "struct"
						}
						found = append(found, finding{id.Pos(), p + "." + owner + "." + id.Name})
					}
				}
			}
			return true
		})
	})
	return found
}

// loader type-checks the packages of the scanned modules from source,
// recording every use in one Info, and imports everything else
// (the standard library) through the source importer.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // by import path
	paths []string               // the keys of files, sorted
	pkgs  map[string]*types.Package
	info  *types.Info
}

// production calls visit for every scanned file, in import path order.
func (l *loader) production(visit func(path string, f *ast.File)) {
	for _, p := range l.paths {
		for _, f := range l.files[p] {
			visit(p, f)
		}
	}
}

// own calls visit for every scanned file of module repro; the benchmark
// module only uses.
func (l *loader) own(visit func(path string, f *ast.File)) {
	l.production(func(p string, f *ast.File) {
		if !strings.HasPrefix(p+"/", "repro/bench/") {
			visit(p, f)
		}
	})
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
