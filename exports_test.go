package propack

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalExportsHaveCallers: production ships only what a caller runs.
// Every exported top-level func, type, var and const declared in a non-test
// file under internal/ must be used by non-test code other than its own
// declaration — as a bare identifier in its package, or as pkg.Name in a file
// that imports it. A name only tests reach belongs in a _test.go file, or
// nowhere. (Methods are out of scope: an interface or a public re-export may
// be their only caller.)
func TestInternalExportsHaveCallers(t *testing.T) {
	modFile, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(modFile), "\n", 2)[0], "module"))

	type name struct{ dir, id string }
	declared := map[name]token.Position{}
	used := map[name]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		imports := map[string]string{} // local name → directory of a module package
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(p, module+"/")
			if !ok {
				continue
			}
			local := path.Base(rel)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = rel
		}
		for _, unit := range declUnits(f) {
			self := map[string]bool{}
			for _, id := range unitNames(unit) {
				self[id.Name] = true
				if strings.HasPrefix(dir, "internal/") && id.IsExported() {
					declared[name{dir, id.Name}] = fset.Position(id.Pos())
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if pkg, ok := imports[x.Name]; ok {
							used[name{pkg, n.Sel.Name}] = true
							return false
						}
					}
					ast.Inspect(n.X, visit) // n.Sel is a field or method, not a package-level name
					return false
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit) // n.Name is the declaration itself
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.Field:
					ast.Inspect(n.Type, visit) // n.Names are fields, methods or parameters
					return false
				case *ast.Ident:
					if !self[n.Name] {
						used[name{dir, n.Name}] = true
					}
				}
				return true
			}
			ast.Inspect(unit, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no exported name under internal/: the walk is out of step with the tree")
	}
	var unused []string
	for n, pos := range declared {
		if !used[n] {
			unused = append(unused, pos.String()+": "+n.id)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test code uses it", u)
	}
}

// declUnits splits a file's top-level declarations into the units whose
// names count as declared together: each function, and each spec of a type,
// var or const block (a const may be used by the next one in its block).
func declUnits(f *ast.File) []ast.Node {
	var units []ast.Node
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			units = append(units, decl)
		case *ast.GenDecl:
			if decl.Tok == token.IMPORT {
				continue
			}
			for _, spec := range decl.Specs {
				units = append(units, spec)
			}
		}
	}
	return units
}

// unitNames returns the package-level names a declaration unit declares:
// a function's name (a method declares none), or a spec's names.
func unitNames(unit ast.Node) []*ast.Ident {
	switch unit := unit.(type) {
	case *ast.FuncDecl:
		if unit.Recv == nil {
			return []*ast.Ident{unit.Name}
		}
	case *ast.TypeSpec:
		return []*ast.Ident{unit.Name}
	case *ast.ValueSpec:
		return unit.Names
	}
	return nil
}
