package slurmsight_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledExports lists the exported package-level funcs under internal/ and
// cmd/ that no non-test Go calls, each with the reason it stays.
var uncalledExports = map[string]string{
	"slurmsight/internal/curate.Stats":               "process-wide pass counters; the one-pass test of StreamFileParallel reads them",
	"slurmsight/internal/llm.Choose":                 "the paper's model selection, which the llm tests and bench_test.go reproduce",
	"slurmsight/internal/llm.PaperCriteria":          "the paper's model-selection criteria, passed to Choose",
	"slurmsight/internal/obs.StartSpan":              "the tracing API's context-carrying opener; the obs tests pin its nil-tracer no-op",
	"slurmsight/internal/plot.SVG":                   "the SVG renderer TestRenderGoldenDigest pins and raster.PNG mirrors",
	"slurmsight/internal/sacct/colstore.ColumnNames": "the pinned column order the projection tests count against",
	"slurmsight/internal/sched.BackfillNames":        "a *Names lister the policy property tests iterate",
	"slurmsight/internal/sched.PresetNames":          "a *Names lister the policy property tests iterate",
	"slurmsight/internal/sched.PriorityNames":        "a *Names lister the policy property tests iterate",
	"slurmsight/internal/sched.SelectorNames":        "a *Names lister the policy property tests iterate",
	"slurmsight/internal/slurm.AllFieldNames":        "Table 1's column universe, which the fields tests and bench_test.go count",
	"slurmsight/internal/slurm.Categories":           "Table 1's categories, which the fields tests and bench_test.go count",
	"slurmsight/internal/slurm.FieldsInCategory":     "Table 1's per-category fields, which the fields tests count",
	"slurmsight/internal/slurm.FormatCount":          "a Format* reference formatter the parse tests round-trip through; the encoder uses AppendCount",
	"slurmsight/internal/slurm.FormatDuration":       "a Format* reference formatter the parse fuzzer round-trips through; the encoder uses AppendDuration",
	"slurmsight/internal/slurm.FormatMemory":         "a Format* reference formatter the parse tests round-trip through; the encoder uses AppendMemory",
	"slurmsight/internal/slurm.FormatTime":           "a Format* reference formatter the parse tests round-trip through; the encoder uses AppendTime",
	"slurmsight/internal/slurm.ParseTRES":            "the string form of the TRES parser the round-trip tests use",
}

// TestEveryExportHasACaller fails on an exported package-level func under
// internal/ or cmd/ (internal/sched/schedtest aside) that no non-test Go
// references, unless uncalledExports says why it stays. A reference is
// pkg.Name from another package, loopbench/ and examples/ included, or a
// bare Name in the same package outside the func's own declaration.
func TestEveryExportHasACaller(t *testing.T) {
	const module = "slurmsight"
	fset := token.NewFileSet()
	type parsed struct {
		pkg  string // import path of the file's package
		file *ast.File
	}
	var files []parsed
	pkgNames := map[string]string{} // import path -> package name
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == filepath.Join("loopbench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		pkgNames[pkg] = f.Name.Name
		files = append(files, parsed{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{} // "pkg.Name" of every covered func
	for _, pf := range files {
		rel := strings.TrimPrefix(pf.pkg, module+"/")
		if !(strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")) || rel == "internal/sched/schedtest" {
			continue
		}
		for _, d := range pf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				declared[pf.pkg+"."+fd.Name.Name] = true
			}
		}
	}

	// refs holds "pkg.Name" for every pkg.Name selector on an imported
	// package and every bare Name used in pkg outside the declaration of
	// the func called Name.
	refs := map[string]bool{}
	for _, pf := range files {
		imports := map[string]string{} // local name -> import path
		for _, is := range pf.file.Imports {
			ip := strings.Trim(is.Path.Value, `"`)
			name := pkgNames[ip]
			if is.Name != nil {
				name = is.Name.Name
			}
			if name != "" {
				imports[name] = ip
			}
		}
		for _, d := range pf.file.Decls {
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// The name declares; only the signature and body refer.
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							refs[ip+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Field:
					// Field and parameter names declare; only the type refers.
					ast.Inspect(n.Type, visit)
					return false
				case *ast.Ident:
					if n.Name != self {
						refs[pf.pkg+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}

	var missing []string
	for key := range declared {
		if _, ok := uncalledExports[key]; !ok && !refs[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s is exported but no non-test Go calls it: delete it, or add it to uncalledExports with the reason it stays", key)
	}
	for key := range uncalledExports {
		switch {
		case !declared[key]:
			t.Errorf("%s is no longer declared: drop it from uncalledExports", key)
		case refs[key]:
			t.Errorf("%s has a caller now: drop it from uncalledExports", key)
		}
	}
}
