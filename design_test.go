package stramash_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// designGuides are the documents whose citations of DESIGN.md must
// resolve, besides the module's Go comments. CHANGES.md is history: its
// entries keep the section numbers of their day.
var designGuides = []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// designText is a piece of text that may cite DESIGN.md: a whole guide,
// or one Go comment group starting at line.
type designText struct {
	path string
	line int
	text string
}

// at names the line of byte offset off in t.
func (t designText) at(off int) string {
	return fmt.Sprintf("%s:%d", t.path, t.line+strings.Count(t.text[:off], "\n"))
}

// designInputs is everything TestDesignIndex holds DESIGN.md against.
type designInputs struct {
	design   string          // DESIGN.md
	ci       string          // .github/workflows/ci.yml
	declared map[string]bool // the functions declared in _test.go files
	exists   func(path string) bool
	texts    []designText // Go comments and the guides
}

var (
	// A citation of DESIGN.md: its name, then section numbers and quoted
	// headings, as in `DESIGN.md §10, "Way memo"`.
	designCiteRE = regexp.MustCompile(`DESIGN(?:\.md)?((?:(?:[\s,;(]|and\s|or\s)*(?:§\d+(?:\.\d+)*|"[^"]{1,80}"))+)`)
	sectionRE    = regexp.MustCompile(`(paper\s+)?§(\d+(?:\.\d+)*)`)
	quotedRE     = regexp.MustCompile(`"([^"]+)"`)
	// An invariant is cited by number, with or without DESIGN's name.
	invariantRE = regexp.MustCompile(`\binvariants?\s+(\d+(?:(?:\s*,\s*|\s+and\s+|\s+or\s+)\d+)*)`)
	numberRE    = regexp.MustCompile(`\d+`)
	testNameRE  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*`)
	codeSpanRE  = regexp.MustCompile("`([^`\\s]+)`")
	stepSpanRE  = regexp.MustCompile("`([^`]+)`")
	modulePath  = regexp.MustCompile(`^[A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)*/?$`)
	ciStepRE    = regexp.MustCompile(`(?m)^\s*- name: (.+?)\s*$`)
	headingRE   = regexp.MustCompile(`(?m)^(##|###) (?:(\d+)\. )?(.+)$`)
	layerHeadRE = regexp.MustCompile(`^Layer (\d+): (.*)$`)
	rowRE       = regexp.MustCompile(`^\| (\d+) \|(.*)\|$`)
)

// designDoc is what the checks read of DESIGN.md's structure.
type designDoc struct {
	sections   map[string]string // section number → title
	headingIn  map[string]string // heading title → its section's number
	sectionOf  map[string]string // section title → body
	layerHeads [][2]string       // "Layer K: …" headings in order: K, the rest
	invariants map[string]bool   // invariant number → live (not retired)
	ciSteps    []string          // the invariant table's CI steps
}

func parseDesign(text string) designDoc {
	d := designDoc{sections: map[string]string{}, headingIn: map[string]string{},
		sectionOf: map[string]string{}, invariants: map[string]bool{}}
	heads := headingRE.FindAllStringSubmatchIndex(text, -1)
	var cur string
	for i, h := range heads {
		level, num, title := text[h[2]:h[3]], "", text[h[6]:h[7]]
		if h[4] >= 0 {
			num = text[h[4]:h[5]]
		}
		end := len(text)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		if level == "##" {
			cur = num
			d.sections[num] = title
			d.sectionOf[title] = text[h[1]:end]
			if m := layerHeadRE.FindStringSubmatch(title); m != nil {
				d.layerHeads = append(d.layerHeads, [2]string{m[1], m[2]})
			}
		}
		d.headingIn[title] = cur
	}
	for _, line := range strings.Split(d.sectionOf["Key invariants"], "\n") {
		m := rowRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cells := strings.Split(m[2], " | ")
		d.invariants[m[1]] = !strings.Contains(strings.ToLower(cells[0]), "retired")
		if len(cells) == 3 {
			for _, c := range stepSpanRE.FindAllStringSubmatch(cells[2], -1) {
				d.ciSteps = append(d.ciSteps, c[1])
			}
		}
	}
	return d
}

// isModulePath reports whether a code span in DESIGN.md names a file or
// directory of the module: a slash path whose first element is at the
// module root or in internal/, or a bare file name with a source or data
// extension.
func isModulePath(span string, exists func(string) bool) bool {
	if !modulePath.MatchString(span) {
		return false
	}
	first, _, nested := strings.Cut(span, "/")
	if nested {
		return exists(first)
	}
	ext := filepath.Ext(span)
	return slices.Contains([]string{".go", ".txt", ".md", ".yml", ".json", ".sh"}, ext)
}

// designErrors checks DESIGN.md against the tree: every test name it uses
// is declared, every module path exists, the inventory names every package
// of the layer table and the layer sections follow that table, one layer
// each, every CI step of the invariant table is a step of ci.yml, and
// every citation of DESIGN.md (its own § references included) resolves.
func designErrors(in designInputs) []string {
	var errs []string
	doc := parseDesign(in.design)
	self := designText{path: "DESIGN.md", line: 1, text: in.design}

	for _, m := range testNameRE.FindAllStringIndex(in.design, -1) {
		if name := in.design[m[0]:m[1]]; !in.declared[name] {
			errs = append(errs, fmt.Sprintf("%s names %s, which no _test.go file declares", self.at(m[0]), name))
		}
	}
	for _, m := range codeSpanRE.FindAllStringSubmatchIndex(in.design, -1) {
		span := in.design[m[2]:m[3]]
		if isModulePath(span, in.exists) && !in.exists(strings.TrimSuffix(span, "/")) {
			errs = append(errs, fmt.Sprintf("%s names %s, which is no path of the module or of internal/", self.at(m[0]), span))
		}
	}

	inventory := doc.sectionOf["System inventory"]
	for _, layer := range layers {
		for _, pkg := range layer {
			if !strings.Contains(inventory, "`"+pkg+"`") {
				errs = append(errs, fmt.Sprintf("the inventory (System inventory) does not name %s", pkg))
			}
		}
	}
	for i, layer := range layers {
		if i >= len(doc.layerHeads) {
			errs = append(errs, fmt.Sprintf("no section for layer %d", i))
			continue
		}
		k, head := doc.layerHeads[i][0], doc.layerHeads[i][1]
		if k != fmt.Sprint(i) {
			errs = append(errs, fmt.Sprintf("section %d of the layers is titled layer %s", i, k))
		}
		for _, pkg := range layer {
			if !strings.Contains(head, "`"+pkg+"`") {
				errs = append(errs, fmt.Sprintf("the heading of layer %d does not name %s", i, pkg))
			}
		}
	}
	if len(doc.layerHeads) > len(layers) {
		errs = append(errs, fmt.Sprintf("%d layer sections for %d layers", len(doc.layerHeads), len(layers)))
	}

	steps := map[string]bool{}
	for _, m := range ciStepRE.FindAllStringSubmatch(in.ci, -1) {
		steps[m[1]] = true
	}
	for _, s := range doc.ciSteps {
		if !steps[s] {
			errs = append(errs, fmt.Sprintf("the invariant table names CI step %q, which ci.yml does not have", s))
		}
	}

	for _, m := range sectionRE.FindAllStringSubmatchIndex(in.design, -1) {
		if num := in.design[m[4]:m[5]]; m[2] < 0 && doc.sections[num] == "" {
			errs = append(errs, fmt.Sprintf("%s refers to §%s, which is no section", self.at(m[0]), num))
		}
	}
	for _, t := range in.texts {
		errs = append(errs, citeErrors(t, doc)...)
	}
	return errs
}

// citeErrors checks t's citations of DESIGN.md: each § is a section, each
// quoted title a heading (inside the § cited with it), and each invariant
// number a live row of the invariant table.
func citeErrors(t designText, doc designDoc) []string {
	var errs []string
	for _, m := range designCiteRE.FindAllStringSubmatchIndex(t.text, -1) {
		items := t.text[m[2]:m[3]]
		var cited []string
		for _, s := range sectionRE.FindAllStringSubmatch(items, -1) {
			cited = append(cited, s[2])
			if doc.sections[s[2]] == "" {
				errs = append(errs, fmt.Sprintf("%s cites DESIGN §%s, which is no section", t.at(m[0]), s[2]))
			}
		}
		for _, q := range quotedRE.FindAllStringSubmatch(items, -1) {
			title := strings.Join(strings.Fields(q[1]), " ")
			in, ok := doc.headingIn[title]
			switch {
			case !ok:
				errs = append(errs, fmt.Sprintf("%s cites DESIGN %q, which is no heading", t.at(m[0]), title))
			case len(cited) == 1 && in != cited[0]:
				errs = append(errs, fmt.Sprintf("%s cites DESIGN §%s %q, which is in §%s", t.at(m[0]), cited[0], title, in))
			}
		}
	}
	for _, m := range invariantRE.FindAllStringSubmatchIndex(t.text, -1) {
		for _, n := range numberRE.FindAllString(t.text[m[2]:m[3]], -1) {
			live, ok := doc.invariants[n]
			switch {
			case !ok:
				errs = append(errs, fmt.Sprintf("%s cites invariant %s, which DESIGN's table does not have", t.at(m[0]), n))
			case !live:
				errs = append(errs, fmt.Sprintf("%s cites invariant %s, which is retired", t.at(m[0]), n))
			}
		}
	}
	return errs
}

// readDesignInputs parses every Go file of the module once: its comment
// groups are citation texts, and a _test.go file's top-level functions are
// the declared names.
func readDesignInputs(t *testing.T) designInputs {
	t.Helper()
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	in := designInputs{
		design:   read("DESIGN.md"),
		ci:       read(".github/workflows/ci.yml"),
		declared: map[string]bool{},
		exists: func(path string) bool {
			for _, p := range []string{path, filepath.Join("internal", path)} {
				if _, err := os.Stat(filepath.FromSlash(p)); err == nil {
					return true
				}
			}
			return false
		},
	}
	for _, g := range designGuides {
		in.texts = append(in.texts, designText{path: g, line: 1, text: read(g)})
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			in.texts = append(in.texts, designText{path: filepath.ToSlash(path), line: fset.Position(cg.Pos()).Line, text: cg.Text()})
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					in.declared[fn.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDesignIndex(t *testing.T) {
	in := readDesignInputs(t)
	for _, e := range designErrors(in) {
		t.Error(e)
	}

	// Each way DESIGN.md drifts from the tree must be caught.
	cite := func(text string) func(designInputs) designInputs {
		return func(in designInputs) designInputs {
			in.texts = append(slices.Clip(in.texts), designText{path: "cite.go", line: 1, text: text})
			return in
		}
	}
	mutations := []struct {
		name   string
		mutate func(designInputs) designInputs
		want   string
	}{
		{"a cited test renamed", func(in designInputs) designInputs {
			in.declared = maps.Clone(in.declared)
			delete(in.declared, "TestVMATreeAgainstNaiveModel")
			return in
		}, "names TestVMATreeAgainstNaiveModel, which no _test.go file declares"},
		{"a stale path", func(in designInputs) designInputs {
			in.design += "\nSee `internal/kernel/gone.go`.\n"
			return in
		}, "names internal/kernel/gone.go, which is no path"},
		{"a CI step renamed", func(in designInputs) designInputs {
			in.ci = strings.Replace(in.ci, "- name: Fuzz PTE conversion (invariant 4)", "- name: Fuzz PTEs", 1)
			return in
		}, `CI step "Fuzz PTE conversion (invariant 4)", which ci.yml does not have`},
		{"a missing section", cite("see DESIGN.md §99"), "cite.go:1 cites DESIGN §99, which is no section"},
		{"a missing heading", cite(`DESIGN §10, "Way memos"`), `cites DESIGN "Way memos", which is no heading`},
		{"a heading under the wrong section", cite(`DESIGN §6, "Way memo"`), `cites DESIGN §6 "Way memo", which is in §10`},
		{"a retired invariant", cite("holds invariant 6"), "cites invariant 6, which is retired"},
		{"a missing invariant", cite("DESIGN invariants 4 and 14"), "cites invariant 14, which DESIGN's table does not have"},
		{"a package missing from the inventory", func(in designInputs) designInputs {
			in.design = strings.Replace(in.design, "| `internal/hwref` |", "| hwref |", 1)
			return in
		}, "the inventory (System inventory) does not name internal/hwref"},
		{"layer sections out of order", func(in designInputs) designInputs {
			in.design = strings.Replace(in.design, "Layer 3: ", "Layer 4: ", 1)
			return in
		}, "section 3 of the layers is titled layer 4"},
	}
	for _, m := range mutations {
		errs := designErrors(m.mutate(in))
		if !slices.ContainsFunc(errs, func(e string) bool { return strings.Contains(e, m.want) }) {
			t.Errorf("%s: errors %q do not include %q", m.name, errs, m.want)
		}
	}
}
