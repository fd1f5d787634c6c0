package ldbnadapt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported identifiers in internal/ that only
// tests call, with the reason each one stays exported. A key is
// "pkg.Name" for a function, type, variable or constant and
// "pkg.Recv.Name" for a method, pkg being the directory under internal/.
var testOnlyExports = map[string]string{
	"tensor.Tensor.AllClose":         "tolerance check shared by the tests of most packages",
	"tensor.RNG.FillUniform":         "random fill shared by the tests of most packages",
	"tensor.Tensor.HasNaN":           "non-finite check shared by the adapt, carlane and tensor tests; the planned divergence guard is meant to call it",
	"tensor.Dot":                     "reference inner product shared by the nn, resnet and tensor tests",
	"tensor.Tensor.MeanStd":          "moment check shared by the carlane, nn and tensor tests",
	"serve.BurstyFleet":              "bursty arrival fixture shared by the govern, serve and shard tests",
	"orin.EstimateInferenceOnly":     "independent inference price that serve's exact latency recurrence is checked against",
	"resnet.ModelCost.TotalBNParams": "the paper's BN-parameter share, checked by the resnet and ufld tests",
}

// TestNoTestOnlyExports fails when an exported identifier in internal/
// has no caller outside _test.go files and is not on testOnlyExports,
// and when a listed identifier is gone or production has started to
// call it. Callers are every non-test file of the repository: internal/,
// cmd/, examples/ and the nested bench/ module. Method calls match by
// name only, whatever the receiver, and a method named in any interface
// declared in production code counts as called.
func TestNoTestOnlyExports(t *testing.T) {
	declared := map[string]token.Position{} // key → where it is declared
	used := map[string]bool{}               // "pkg.Name" referenced
	calledMethods := map[string]bool{}      // method names selected or in an interface
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := ""
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			pkg = strings.TrimPrefix(dir, "internal/")
		}
		scanFile(fset, f, pkg, declared, used, calledMethods)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var testOnly, stale []string
	for key, pos := range declared {
		parts := strings.Split(key, ".")
		called := used[key]
		if len(parts) == 3 {
			called = calledMethods[parts[2]]
		}
		_, listed := testOnlyExports[key]
		switch {
		case !called && !listed:
			testOnly = append(testOnly, key+" ("+pos.String()+")")
		case called && listed:
			stale = append(stale, key+" is called by production; drop it from testOnlyExports")
		}
	}
	for key := range testOnlyExports {
		if _, ok := declared[key]; !ok {
			stale = append(stale, key+" is no longer declared; drop it from testOnlyExports")
		}
	}
	sort.Strings(testOnly)
	sort.Strings(stale)
	if len(testOnly) > 0 {
		t.Errorf("%d exported identifiers have no caller outside tests; call them from production, "+
			"delete them, move them into a _test.go file, or list them with a reason:\n\t%s",
			len(testOnly), strings.Join(testOnly, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("testOnlyExports is out of date:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// scanFile records the exported declarations of a file in internal/pkg
// (pkg is empty outside internal/) and every reference the file makes.
func scanFile(fset *token.FileSet, f *ast.File, pkg string, declared map[string]token.Position, used, calledMethods map[string]bool) {
	skip := map[*ast.Ident]bool{} // identifiers that are not a reference to pkg.Name
	declare := func(id *ast.Ident, key string) {
		skip[id] = true
		if pkg != "" && id.IsExported() {
			declared[key] = fset.Position(id.Pos())
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declare(d.Name, pkg+"."+d.Name.Name)
			} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
				declare(d.Name, pkg+"."+recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declare(s.Name, pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						declare(id, pkg+"."+id.Name)
					}
				}
			}
		}
	}

	imports := map[string]string{} // local name → package under internal/
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		rel, ok := strings.CutPrefix(path, "ldbnadapt/internal/")
		if !ok {
			continue
		}
		local := rel[strings.LastIndex(rel, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = rel
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if rel, ok := imports[x.Name]; ok {
					used[rel+"."+n.Sel.Name] = true
					skip[x] = true
					return true
				}
			}
			calledMethods[n.Sel.Name] = true
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					calledMethods[id.Name] = true
				}
			}
		case *ast.Ident:
			if pkg != "" && !skip[n] {
				used[pkg+"."+n.Name] = true
			}
		}
		return true
	})
}

// recvName is the type name of a method receiver, with any pointer and
// type parameter stripped.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
