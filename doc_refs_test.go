package blogclusters

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRefFiles are the documents whose references TestDocReferencesResolve
// holds to the tree. bench/README.md is left out: it belongs to the
// benchmark harness and changes with it.
var docRefFiles = []string{
	"DESIGN.md",
	"examples/README.md",
	"cmd/blogscope/README.md",
	"cmd/blogserved/README.md",
}

// TestDocReferencesResolve: every reference the documents make into the
// tree resolves. In each inline code span (fenced blocks are skipped),
//   - a repo path (a slash path under a top-level entry of the repo, or
//     a bare *.go, *.md, *.sh, *.yml file name) exists, and
//     `dir/pkg.Name` resolves as `pkg.Name`;
//   - `make X Y` names Makefile targets;
//   - `pkg.Name` and `pkg.Type.Member`, pkg one of this module's
//     packages, name a declaration, and Member a field or method of it;
//     a per-layer metric of BENCHMARK.json (`core.bfs_sub_ms`) is not
//     a declaration and passes as it is;
//   - `Type.Member`, Type an exported type declared once in the
//     module, names a field or method of it.
//
// In the prose, every "ROADMAP item N" names a numbered item of
// ROADMAP.md, open or retired.
func TestDocReferencesResolve(t *testing.T) {
	mod := loadModuleDecls(t)
	targets := makeTargets(t)
	items := roadmapItems(t)
	metrics := layerMetrics(t)
	for _, doc := range docRefFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := stripFences(string(raw))
		for _, m := range roadmapRef.FindAllStringSubmatch(text, -1) {
			if !items[m[1]] {
				t.Errorf("%s: %q names no ROADMAP item", doc, m[0])
			}
		}
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			span := strings.Join(strings.Fields(m[1]), " ")
			if metrics[span] {
				continue
			}
			if msg := checkSpan(span, mod, targets); msg != "" {
				t.Errorf("%s: `%s`: %s", doc, span, msg)
			}
		}
	}
}

var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	roadmapRef = regexp.MustCompile(`ROADMAP\s+items?\s+(\d+)`)
	pathSpan   = regexp.MustCompile(`^\.?[A-Za-z0-9_\-]+(/[A-Za-z0-9_.\-]+)*/?(:\d+)?$`)
	fileSpan   = regexp.MustCompile(`^[A-Za-z0-9_\-]+\.(go|md|sh|yml)$`)
	qualified  = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:[(\[].*)?$`)
	typeMember = regexp.MustCompile(`^([A-Z]\w*)\.([A-Za-z_]\w*)(?:[(\[].*)?$`)
	makeTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9_\-]+):`)
	roadmapNum = regexp.MustCompile(`(?m)^(\d+)\. `)
)

// checkSpan returns why one code span does not resolve, or "".
func checkSpan(span string, mod *moduleDecls, targets map[string]bool) string {
	if rest, ok := strings.CutPrefix(span, "make "); ok {
		for _, w := range strings.Fields(rest) {
			if strings.HasPrefix(w, "-") || strings.Contains(w, "=") {
				continue
			}
			if !targets[w] {
				return "no Makefile target " + w
			}
		}
		return ""
	}
	if fileSpan.MatchString(span) {
		if !mod.files[span] {
			return "no such file in the repo"
		}
		return ""
	}
	if top, _, ok := strings.Cut(span, "/"); ok && pathSpan.MatchString(span) {
		if _, err := os.Stat(top); err != nil {
			return "" // not under the repo root: a standard-library path, a route
		}
		p, _, _ := strings.Cut(span, ":")
		p = strings.TrimSuffix(p, "/")
		if _, err := os.Stat(filepath.FromSlash(p)); err == nil {
			return ""
		}
		dir, ident, ok := strings.Cut(p[strings.LastIndex(p, "/")+1:], ".")
		if _, err := os.Stat(filepath.Dir(filepath.FromSlash(p)) + "/" + dir); !ok || err != nil {
			return "no such path in the repo"
		}
		span = dir + "." + ident
	}
	if m := qualified.FindStringSubmatch(span); m != nil {
		pkg := mod.pkgs[m[1]]
		if pkg == nil {
			return "" // not one of this module's packages
		}
		if !pkg.names[m[2]] {
			return "package " + m[1] + " declares no " + m[2]
		}
		if m[3] != "" && pkg.types[m[2]] && !mod.hasMember(m[1], m[2], m[3]) {
			return m[1] + "." + m[2] + " has no field or method " + m[3]
		}
		return ""
	}
	if m := typeMember.FindStringSubmatch(span); m != nil {
		homes := mod.typeHomes[m[1]]
		if len(homes) == 1 && !mod.hasMember(homes[0], m[1], m[2]) {
			return homes[0] + "." + m[1] + " has no field or method " + m[2]
		}
	}
	return ""
}

// stripFences blanks out fenced code blocks: they hold commands and
// output, not references.
func stripFences(s string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
			b.WriteString("\n")
			continue
		}
		if in {
			b.WriteString("\n")
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// layerMetrics returns the per-layer metric names BENCHMARK.json
// declares.
func layerMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range bench.PerLayer {
		out[m.Name] = true
	}
	return out
}

func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(raw), -1) {
		out[m[1]] = true
	}
	return out
}

func roadmapItems(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range roadmapNum.FindAllStringSubmatch(string(raw), -1) {
		out[m[1]] = true
	}
	return out
}

// pkgDecls is one package's top-level names, which of them are types,
// and each type's fields, methods and embedded types.
type pkgDecls struct {
	names    map[string]bool
	types    map[string]bool
	members  map[string]map[string]bool
	embeds   map[string][]typeRef
	aliasFor map[string]typeRef
}

// typeRef names a type: pkg is the package name ("" for the same
// package).
type typeRef struct{ pkg, name string }

// moduleDecls indexes the module's non-main packages by package name,
// every exported type name by the packages declaring it, and every
// file base name.
type moduleDecls struct {
	pkgs      map[string]*pkgDecls
	typeHomes map[string][]string
	files     map[string]bool
}

// loadModuleDecls parses every Go file of the module outside bench/
// (its own module) with go/parser, tests included.
func loadModuleDecls(t *testing.T) *moduleDecls {
	t.Helper()
	mod := &moduleDecls{pkgs: map[string]*pkgDecls{}, typeHomes: map[string][]string{}, files: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "bench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		mod.files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if name := f.Name.Name; name != "main" {
			mod.add(strings.TrimSuffix(name, "_test"), f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range mod.pkgs {
		for typ := range p.types {
			if ast.IsExported(typ) {
				mod.typeHomes[typ] = append(mod.typeHomes[typ], name)
			}
		}
	}
	return mod
}

func (mod *moduleDecls) add(pkg string, f *ast.File) {
	p := mod.pkgs[pkg]
	if p == nil {
		p = &pkgDecls{names: map[string]bool{}, types: map[string]bool{}, members: map[string]map[string]bool{},
			embeds: map[string][]typeRef{}, aliasFor: map[string]typeRef{}}
		mod.pkgs[pkg] = p
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
			} else if r := refOf(d.Recv.List[0].Type); r.name != "" {
				member(r.name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					p.names[typ], p.types[typ] = true, true
					if s.Assign.IsValid() {
						p.aliasFor[typ] = refOf(s.Type)
					}
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 {
							r := refOf(fl.Type)
							member(typ, r.name)
							p.embeds[typ] = append(p.embeds[typ], r)
						}
						for _, n := range fl.Names {
							member(typ, n.Name)
						}
					}
				}
			}
		}
	}
}

// refOf names the type an expression spells, through pointers and
// type arguments.
func refOf(e ast.Expr) typeRef {
	switch x := e.(type) {
	case *ast.Ident:
		return typeRef{name: x.Name}
	case *ast.StarExpr:
		return refOf(x.X)
	case *ast.IndexExpr:
		return refOf(x.X)
	case *ast.IndexListExpr:
		return refOf(x.X)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return typeRef{pkg: id.Name, name: x.Sel.Name}
		}
	}
	return typeRef{}
}

// hasMember reports whether pkg.typ has a field or method named name,
// its own, an embedded type's, or its alias target's.
func (mod *moduleDecls) hasMember(pkg, typ, name string) bool {
	seen := map[typeRef]bool{}
	var walk func(r typeRef) bool
	walk = func(r typeRef) bool {
		p := mod.pkgs[r.pkg]
		if p == nil || seen[r] {
			return false
		}
		seen[r] = true
		if p.members[r.name][name] {
			return true
		}
		next := append([]typeRef(nil), p.embeds[r.name]...)
		if a, ok := p.aliasFor[r.name]; ok {
			next = append(next, a)
		}
		for _, e := range next {
			if e.pkg == "" {
				e.pkg = r.pkg
			}
			if walk(e) {
				return true
			}
		}
		return false
	}
	return walk(typeRef{pkg, typ})
}
