package propack

import (
	"errors"
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

// TestInternalExportsHaveCallers: production ships only what a caller runs.
// Every exported name declared in a non-test file under internal/ — a
// top-level func, type, var or const, or a method — must be reached by
// non-test code other than its own declaration. A name is reached when
// non-test code uses it (a method: selects it, promoted or not). A method is
// also reached when it implements a method of an interface that non-test
// code uses, or one of the standard library's dynamic protocols, which are
// matched by signature (fmt's String and Format, error's Error, errors.Is/As's
// Unwrap, encoding's Marshal*). A name only tests reach belongs in a _test.go
// file, or nowhere.
func TestInternalExportsHaveCallers(t *testing.T) {
	tr := loadTree(t)

	type span struct{ from, to token.Pos }
	declared := map[types.Object]span{} // exported internal names → their declaration
	var methods []*types.Func
	for dir, files := range tr.files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						fn := tr.info.Defs[d.Name].(*types.Func)
						declared[fn] = span{d.Pos(), d.End()}
						if d.Recv != nil {
							methods = append(methods, fn)
						}
					}
				case *ast.GenDecl:
					// Each spec is its own unit: a const may be used by the
					// next one in its block.
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							if id.IsExported() {
								declared[tr.info.Defs[id]] = span{spec.Pos(), spec.End()}
							}
						}
					}
				}
			}
		}
	}
	if len(declared) == 0 || len(methods) == 0 {
		t.Fatal("found no exported name or method under internal/: the walk is out of step with the tree")
	}

	reached := map[types.Object]bool{}
	for id, obj := range tr.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if s, ok := declared[obj]; ok && (id.Pos() < s.from || id.Pos() >= s.to) {
			reached[obj] = true
		}
	}
	ifaces := usedInterfaces(tr.info)
	for _, fn := range methods {
		if !reached[fn] && (isProtocol(fn) || implementsUsed(fn, ifaces)) {
			reached[fn] = true
		}
	}

	var unused []string
	for obj := range declared {
		if !reached[obj] {
			name := obj.Name()
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				name = recvName(fn) + "." + name
			}
			unused = append(unused, tr.fset.Position(obj.Pos()).String()+": "+name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test code reaches it", u)
	}
}

// recvName is the name of a method's receiver base type.
func recvName(fn *types.Func) string {
	typ := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := typ.(*types.Named); ok {
		return n.Obj().Name()
	}
	return typ.String()
}

// protocols are the standard library's dynamic method protocols: methods it
// finds by type assertion on an any, so no interface type in the caller's
// code names them.
var protocols = map[string]string{
	"Error":         "func() string",
	"String":        "func() string",
	"Unwrap":        "func() error",
	"Format":        "func(fmt.State, rune)",
	"MarshalJSON":   "func() ([]byte, error)",
	"MarshalText":   "func() ([]byte, error)",
	"MarshalBinary": "func() ([]byte, error)",
}

func isProtocol(fn *types.Func) bool {
	want, ok := protocols[fn.Name()]
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	bare := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(bare, func(p *types.Package) string { return p.Path() }) == want
}

// implementsUsed reports whether fn's receiver type, or a pointer to it,
// implements an interface in ifaces that has a method of fn's name.
func implementsUsed(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// usedInterfaces indexes by method name every interface that non-test code
// uses: the interfaces in the type of each expression, definition and use,
// through composite types and signatures (sort.Sort's parameter is
// sort.Interface), but not through a named type's fields.
func usedInterfaces(info *types.Info) map[string][]*types.Interface {
	seen := map[types.Type]bool{}
	byName := map[string][]*types.Interface{}
	var walk func(types.Type)
	walk = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			if iface, ok := typ.Underlying().(*types.Interface); ok {
				walk(iface)
			}
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				walk(typ.TypeArgs().At(i))
			}
		case *types.Alias:
			walk(types.Unalias(typ))
		case *types.Interface:
			for i := 0; i < typ.NumMethods(); i++ {
				name := typ.Method(i).Name()
				byName[name] = append(byName[name], typ)
			}
		case *types.Pointer:
			walk(typ.Elem())
		case *types.Slice:
			walk(typ.Elem())
		case *types.Array:
			walk(typ.Elem())
		case *types.Chan:
			walk(typ.Elem())
		case *types.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case *types.Signature:
			walk(typ.Params())
			walk(typ.Results())
		case *types.Tuple:
			for i := 0; i < typ.Len(); i++ {
				walk(typ.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				walk(typ.Field(i).Type())
			}
		case *types.TypeParam:
			walk(typ.Constraint())
		}
	}
	for _, tv := range info.Types {
		walk(tv.Type)
	}
	for _, obj := range info.Defs {
		if obj != nil {
			walk(obj.Type())
		}
	}
	for _, obj := range info.Uses {
		walk(obj.Type())
	}
	return byName
}

// srcTree is the module's non-test code, type-checked from source: its own
// packages by this importer, the standard library by go/importer's source
// importer, so every package is checked once and types are shared.
type srcTree struct {
	fset   *token.FileSet
	module string
	std    types.Importer
	info   *types.Info
	files  map[string][]*ast.File // module-relative directory → its files
	pkgs   map[string]*types.Package
}

// loadTree type-checks every package of the module with its non-test files.
func loadTree(t *testing.T) *srcTree {
	t.Helper()
	tr := parseTree(t)
	for dir := range tr.files {
		if _, err := tr.check(dir); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// parseTree parses the non-test files of every package of the module; check
// type-checks one package and what it imports.
func parseTree(t *testing.T) *srcTree {
	t.Helper()
	modFile, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	tr := &srcTree{
		fset:   fset,
		module: strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(modFile), "\n", 2)[0], "module")),
		std:    importer.ForCompiler(fset, "source", nil),
		info:   &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		files:  map[string][]*ast.File{},
		pkgs:   map[string]*types.Package{},
	}
	err = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			}
			return err
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			tr.files[filepath.ToSlash(dir)] = append(tr.files[filepath.ToSlash(dir)], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func (tr *srcTree) Import(path string) (*types.Package, error) {
	if path == tr.module {
		return tr.check(".")
	}
	if rel, ok := strings.CutPrefix(path, tr.module+"/"); ok {
		return tr.check(rel)
	}
	return tr.std.Import(path)
}

// check type-checks the package in a module-relative directory, once.
func (tr *srcTree) check(dir string) (*types.Package, error) {
	if pkg, ok := tr.pkgs[dir]; ok {
		return pkg, nil
	}
	path := tr.module
	if dir != "." {
		path += "/" + dir
	}
	conf := types.Config{Importer: tr}
	pkg, err := conf.Check(path, tr.fset, tr.files[dir], tr.info)
	if err != nil {
		return nil, err
	}
	tr.pkgs[dir] = pkg
	return pkg, nil
}
