package propack

import (
	"bytes"
	"flag"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestPublicAPIGolden pins this package's exported API: every exported name
// with its type, and for every named type it declares or re-exports, the
// exported methods of T and then those only *T has. A change to the public
// surface — a re-exported internal method included — is a diff to
// testdata/api.golden; regenerate it with `go test -run TestPublicAPIGolden
// -update .` and review what moved.
func TestPublicAPIGolden(t *testing.T) {
	tr := parseTree(t)
	pkg, err := tr.check(".")
	if err != nil {
		t.Fatal(err)
	}
	qualify := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var buf bytes.Buffer
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		fmt.Fprintln(&buf, types.ObjectString(obj, qualify))
		if _, ok := obj.(*types.TypeName); !ok {
			continue
		}
		typ := types.Unalias(obj.Type())
		if _, ok := typ.Underlying().(*types.Interface); ok {
			continue // its methods are in its type
		}
		values := types.NewMethodSet(typ)
		for _, set := range []*types.MethodSet{values, types.NewMethodSet(types.NewPointer(typ))} {
			for i := 0; i < set.Len(); i++ {
				m := set.At(i).Obj()
				if !m.Exported() || (set != values && values.Lookup(m.Pkg(), m.Name()) != nil) {
					continue
				}
				recv := name
				if set != values {
					recv = "*" + name
				}
				sig := types.TypeString(m.Type(), qualify)
				fmt.Fprintf(&buf, "\tmethod (%s) %s%s\n", recv, m.Name(), sig[len("func"):])
			}
		}
	}

	golden := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("the public API differs from %s; if intended, rerun with -update and review the diff:\n%s", golden, buf.Bytes())
	}
}
