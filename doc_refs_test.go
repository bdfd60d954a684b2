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
	"slices"
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
//
// Every citation of a DESIGN.md title resolves (designCitations), and
// no DESIGN.md paragraph opens as one change's benchmark reading: those
// are recorded once, in CHANGES.md.
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

	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := stripFences(string(raw))
	for _, m := range readingLead.FindAllString(design, -1) {
		t.Errorf("DESIGN.md: a paragraph opens with %q: a change's reading belongs in its CHANGES.md entry", m)
	}
	titles := designTitles(design)
	for _, c := range designCitations(t, mod.goFiles, design) {
		if !titles.resolve(c.title) {
			t.Errorf("%s: DESIGN.md %q names no heading or paragraph lead of DESIGN.md", c.file, c.title)
		}
	}
}

var (
	// designCite is a citation of a DESIGN.md title from another file:
	// DESIGN.md "Solve path", DESIGN.md ("Substitutions" or
	// DESIGN.md, "Keyword-graph construction".
	designCite = regexp.MustCompile(`DESIGN\.md(?:\s*[,(]\s*|\s+)"([^"]+)"`)
	quoted     = regexp.MustCompile(`"([^"]*)"`)
	titleArrow = regexp.MustCompile(`\s*(?:→|->)\s*`)
	// wrap is a line break with the indentation and comment marker of
	// the next line, so a title wrapped over two lines reads as one.
	wrap          = regexp.MustCompile(`[ \t]*\n[ \t]*(?:(?://+|#+)[ \t]*)?`)
	readingLead   = regexp.MustCompile(`(?m)^\*\*ISSUE \d+'s reading`)
	designHeading = regexp.MustCompile(`(?m)^(##|###) (.+?)[ \t]*$`)
	designLead    = regexp.MustCompile(`(?m)^(?:[ \t]*(?:\d+\.|[-*])[ \t]+)?\*\*(.+?)\.\*\*`)
)

// designCitation is one cited DESIGN.md title and the file citing it.
type designCitation struct{ file, title string }

// designCitations collects the citations of DESIGN.md titles: in the
// module's Go files (goFiles), the docRefFiles, ROADMAP.md, the
// scripts, the Makefile, the CI workflows and the verify notes, each
// DESIGN.md followed by a double-quoted title; in DESIGN.md itself
// (design, fences stripped), each quoted "A → B". CHANGES.md is history
// and is not read.
func designCitations(t *testing.T, goFiles []string, design string) []designCitation {
	t.Helper()
	files := append([]string{"ROADMAP.md", "Makefile", ".claude/skills/verify/SKILL.md"}, docRefFiles...)
	for _, pattern := range []string{"scripts/*.sh", ".github/workflows/*.yml"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	var out []designCitation
	for _, f := range append(files, goFiles...) {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designCite.FindAllStringSubmatch(wrap.ReplaceAllString(string(raw), " "), -1) {
			out = append(out, designCitation{f, m[1]})
		}
	}
	// Code spans are blanked first so that a quote inside one cannot
	// pair with a quote of the prose.
	prose := wrap.ReplaceAllString(codeSpan.ReplaceAllString(design, ""), " ")
	for _, m := range quoted.FindAllStringSubmatch(prose, -1) {
		if titleArrow.MatchString(m[1]) {
			out = append(out, designCitation{"DESIGN.md", m[1]})
		}
	}
	return out
}

// designTitle is a ## or ### heading (level 2 or 3) or a bold paragraph
// lead, **Title.** (level 4), at byte offset at; its section runs to
// the next title of its level or above.
type designTitle struct {
	name      string
	level, at int
}

type designOutline []designTitle

func designTitles(design string) designOutline {
	var out designOutline
	for _, m := range designHeading.FindAllStringSubmatchIndex(design, -1) {
		out = append(out, designTitle{design[m[4]:m[5]], m[3] - m[2], m[0]})
	}
	for _, m := range designLead.FindAllStringSubmatchIndex(design, -1) {
		out = append(out, designTitle{design[m[2]:m[3]], 4, m[0]})
	}
	slices.SortFunc(out, func(a, b designTitle) int { return a.at - b.at })
	return out
}

// resolve reports whether title, split on → or ->, names a heading or
// lead whose every later part is a heading or lead inside the previous
// part's section.
func (o designOutline) resolve(title string) bool {
	parts := titleArrow.Split(strings.TrimSpace(title), -1)
	var in func(lo, hi, part int) bool
	in = func(lo, hi, part int) bool {
		if part == len(parts) {
			return true
		}
		for i := lo; i < hi; i++ {
			if o[i].name != parts[part] {
				continue
			}
			end := i + 1
			for end < len(o) && o[end].level > o[i].level {
				end++
			}
			if in(i+1, end, part+1) {
				return true
			}
		}
		return false
	}
	return in(0, len(o), 0)
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
// every exported type name by the packages declaring it, every file
// base name, and the path of every Go file.
type moduleDecls struct {
	pkgs      map[string]*pkgDecls
	typeHomes map[string][]string
	files     map[string]bool
	goFiles   []string
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
		mod.goFiles = append(mod.goFiles, path)
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
