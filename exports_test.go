package slurmsight_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledExports lists the exports under internal/ and cmd/ that no
// non-test Go uses, each with the reason it stays.
var uncalledExports = map[string]string{
	"slurmsight/internal/core.RunFederated":   "the paper's §4.3 cross-facility workflow, a library entry point beside Run that no command wraps",
	"slurmsight/internal/llm.Choose":          "Table 2 of the paper: the model selection over the registry, a library entry point no command wraps",
	"slurmsight/internal/llm.PaperCriteria":   "Table 2 of the paper: the criteria Choose applies",
	"slurmsight/internal/llm.Client.Chat":     "the Go client of llmserve's /v1/chat endpoint, which no command of this module calls",
	"slurmsight/internal/llm.Client.Models":   "the Go client of llmserve's /v1/models endpoint, which no command of this module calls",
	"slurmsight/internal/slurm.AllFieldNames": "Table 1 of the paper: the 118-column sacct universe the 60 selected fields are drawn from",
}

// interfaceMethods are method names the standard library calls through
// an interface (fmt, errors, encoding/json, net/http), so no Go in the
// module need use them.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// TestEveryExportHasACaller fails on an exported package-level func, type,
// const or var under internal/ or cmd/ (internal/sched/schedtest aside),
// or an exported method of a type declared there, that no non-test Go
// uses, unless uncalledExports says why it stays. Every package of the
// module is type-checked from its non-test files, loopbench/ and
// examples/ included, so a use is an object, not a name: a call on one
// type credits no other type's method of that name. A use inside the
// object's own declaration (a recursive call, a type named in its own
// methods' receivers) does not count. A method of an instance counts for
// its generic origin, and a method also counts as used when its type (T
// or *T) implements an interface method that non-test Go uses. Methods
// named for a standard interface (interfaceMethods) are not checked.
func TestEveryExportHasACaller(t *testing.T) {
	const module = "slurmsight"
	pkgs := typeCheckModule(t)

	// declared keys every checked object as pkg.Name or pkg.Type.Method.
	declared := map[types.Object]string{}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path(), module+"/")
		if !(strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")) || rel == "internal/sched/schedtest" {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			declared[obj] = p.Path() + "." + name
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() && !interfaceMethods[m.Name()] {
					declared[m] = p.Path() + "." + name + "." + m.Name()
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if !p.within(obj, id.Pos()) {
				used[obj] = true
			}
		}
	}
	var ifaceUsed []*types.Func // interface methods non-test Go uses
	for obj := range used {
		if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil && types.IsInterface(f.Signature().Recv().Type()) {
			ifaceUsed = append(ifaceUsed, f)
		}
	}
	called := func(obj types.Object) bool {
		if used[obj] {
			return true
		}
		m, ok := obj.(*types.Func)
		if !ok || m.Signature().Recv() == nil {
			return false
		}
		recv := m.Signature().Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, im := range ifaceUsed {
			if im.Name() != m.Name() {
				continue
			}
			iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	byKey := map[string]types.Object{}
	var missing []string
	for obj, key := range declared {
		byKey[key] = obj
		if _, ok := uncalledExports[key]; !ok && !called(obj) {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s is exported but no non-test Go uses it: delete it, or add it to uncalledExports with the reason it stays", key)
	}
	for key := range uncalledExports {
		switch obj, ok := byKey[key]; {
		case !ok:
			t.Errorf("%s is no longer declared: drop it from uncalledExports", key)
		case called(obj):
			t.Errorf("%s has a caller now: drop it from uncalledExports", key)
		}
	}
}

// checkedPackage is one package of the module, type-checked from its
// non-test files.
type checkedPackage struct {
	*types.Package
	info *types.Info
	own  map[types.Object][]ast.Node // the declarations a use inside does not count
}

// within reports whether pos lies inside one of obj's own declarations.
func (p *checkedPackage) within(obj types.Object, pos token.Pos) bool {
	for _, n := range p.own[obj] {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// typeCheckModule type-checks every package of the module from its
// non-test source, in dependency order, against the standard library's
// export data as `go list -export` names it.
func typeCheckModule(t *testing.T) []*checkedPackage {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var module []listed
	exports := map[string]string{} // standard import path -> export data file
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var l listed
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Standard {
			exports[l.ImportPath] = l.Export
		} else {
			module = append(module, l)
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []*checkedPackage
	for _, l := range module {
		var files []*ast.File
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(l.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		p := &checkedPackage{
			info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
			own:  map[types.Object][]ast.Node{},
		}
		if p.Package, err = conf.Check(l.ImportPath, fset, files, p.info); err != nil {
			t.Fatalf("type-check %s: %v", l.ImportPath, err)
		}
		checked[l.ImportPath] = p.Package
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					p.own[fn] = append(p.own[fn], d)
					if tn := receiverTypeName(fn); tn != nil {
						p.own[tn] = append(p.own[tn], d.Recv)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							p.own[p.info.Defs[ts.Name]] = append(p.own[p.info.Defs[ts.Name]], ts)
						}
					}
				}
			}
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// receiverTypeName is the type a method is declared on, nil for a func.
func receiverTypeName(fn *types.Func) types.Object {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	return typ.(*types.Named).Origin().Obj()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
