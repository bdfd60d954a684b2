package blogclusters

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// maxRootSurface is the most exported identifiers the root package may
// have. Lower it whenever the surface shrinks, so it cannot grow back.
const maxRootSurface = 65

// TestRootSurfaceRatchet counts the root package's exported
// identifiers in its non-test files, read with go/ast: top-level names
// (funcs, types, vars, consts) plus the exported methods of exported
// types. It fails when the count exceeds maxRootSurface.
func TestRootSurfaceRatchet(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var exported []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					id, ok := typ.(*ast.Ident)
					if !ok || !id.IsExported() {
						continue
					}
					name = id.Name + "." + name
				}
				if d.Name.IsExported() {
					exported = append(exported, name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exported = append(exported, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								exported = append(exported, n.Name)
							}
						}
					}
				}
			}
		}
	}
	if len(exported) > maxRootSurface {
		sort.Strings(exported)
		t.Fatalf("the root package exports %d identifiers, more than %d:\n%s",
			len(exported), maxRootSurface, strings.Join(exported, "\n"))
	}
}
