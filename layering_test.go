package stramash_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// layers is the module's build order, earliest first. Outside its tests a
// package may import only packages of strictly earlier layers; tests may
// import upward (the npb, perf and vfs tests build whole machines). "." is
// the module root, which holds only tests: the examples and this file.
var layers = [][]string{
	{"internal/trace", "internal/mem", "internal/cap"},
	{"internal/sim", "internal/pgtable", "internal/cache/ref"},
	{"internal/cache"},
	{"internal/hw"},
	{"internal/interconnect"},
	{"internal/net", "internal/vfs"},
	{"internal/kernel"},
	{"internal/popcorn", "internal/stramash", "internal/npb", "internal/perf"},
	{"internal/machine"},
	{"internal/redisapp", "internal/microbench", "internal/hwref"},
	{"internal/experiments"},
	{"cmd/stramash-bench", "cmd/stramash-sim", "bench"},
	{"."},
}

const module = "repro"

// listedPackage is the part of `go list -json` the layering check reads.
type listedPackage struct {
	ImportPath   string
	Imports      []string
	XTestImports []string
}

// rel names a module package by its directory ("." for the root); ok is
// false for the standard library.
func rel(importPath string) (name string, ok bool) {
	if importPath == module {
		return ".", true
	}
	return strings.CutPrefix(importPath, module+"/")
}

// layeringErrors checks pkgs against the layer table: every package sits
// in exactly one layer and the table names no package that does not exist;
// every non-test import points to a strictly earlier layer; and every
// internal package is reached through non-test imports from a command
// under cmd/, from the ledger in bench/, or from an example in the root
// package's tests.
func layeringErrors(table [][]string, pkgs []listedPackage) []string {
	var errs []string
	layerOf := map[string]int{}
	for i, layer := range table {
		for _, name := range layer {
			if _, dup := layerOf[name]; dup {
				errs = append(errs, fmt.Sprintf("%s is in two layers", name))
			}
			layerOf[name] = i
		}
	}

	byName := map[string]listedPackage{}
	var queue []string
	for _, p := range pkgs {
		name, _ := rel(p.ImportPath)
		byName[name] = p
		if strings.HasPrefix(name, "cmd/") || name == "bench" {
			queue = append(queue, p.ImportPath)
		}
		if name == "." {
			queue = append(queue, p.XTestImports...)
		}
		li, ok := layerOf[name]
		if !ok {
			errs = append(errs, fmt.Sprintf("%s is in no layer", name))
			continue
		}
		for _, imp := range p.Imports {
			dep, ok := rel(imp)
			if dl, inTable := layerOf[dep]; ok && inTable && dl >= li {
				errs = append(errs, fmt.Sprintf("%s (layer %d) imports %s (layer %d)", name, li, dep, dl))
			}
		}
	}
	for _, layer := range table {
		for _, name := range layer {
			if _, ok := byName[name]; !ok {
				errs = append(errs, fmt.Sprintf("the layer table names %s, which is not a package", name))
			}
		}
	}

	reached := map[string]bool{}
	for len(queue) > 0 {
		name, ok := rel(queue[0])
		queue = queue[1:]
		if !ok || reached[name] {
			continue
		}
		reached[name] = true
		queue = append(queue, byName[name].Imports...)
	}
	for _, p := range pkgs {
		if name, _ := rel(p.ImportPath); strings.HasPrefix(name, "internal/") && !reached[name] {
			errs = append(errs, fmt.Sprintf("%s is reached by no command, ledger or example", name))
		}
	}
	return errs
}

func TestLayering(t *testing.T) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	for _, e := range layeringErrors(layers, pkgs) {
		t.Error(e)
	}

	// Each mutation of the real graph must be caught.
	addImport := func(from, to string) func([]listedPackage) []listedPackage {
		return func(ps []listedPackage) []listedPackage {
			for i := range ps {
				if ps[i].ImportPath == module+"/"+from {
					ps[i].Imports = append(slices.Clone(ps[i].Imports), module+"/"+to)
				}
			}
			return ps
		}
	}
	mutations := []struct {
		name   string
		table  [][]string
		mutate func([]listedPackage) []listedPackage
		want   string
	}{
		{"pgtable imports sim", layers, addImport("internal/pgtable", "internal/sim"),
			"internal/pgtable (layer 1) imports internal/sim (layer 1)"},
		{"net imports vfs", layers, addImport("internal/net", "internal/vfs"),
			"internal/net (layer 5) imports internal/vfs (layer 5)"},
		{"mem imports kernel", layers, addImport("internal/mem", "internal/kernel"),
			"internal/mem (layer 0) imports internal/kernel (layer 6)"},
		{"orphan package", append(slices.Clone(layers), []string{"internal/orphan"}),
			func(ps []listedPackage) []listedPackage {
				return append(ps, listedPackage{ImportPath: module + "/internal/orphan"})
			},
			"internal/orphan is reached by no command, ledger or example"},
		{"package missing from the table", layers,
			func(ps []listedPackage) []listedPackage {
				ps = append(ps, listedPackage{ImportPath: module + "/internal/extra"})
				return addImport("internal/machine", "internal/extra")(ps)
			},
			"internal/extra is in no layer"},
		{"stale table entry", append(slices.Clone(layers), []string{"internal/isa"}),
			func(ps []listedPackage) []listedPackage { return ps },
			"the layer table names internal/isa, which is not a package"},
	}
	for _, m := range mutations {
		errs := layeringErrors(m.table, m.mutate(slices.Clone(pkgs)))
		if !slices.Contains(errs, m.want) {
			t.Errorf("%s: errors %q do not include %q", m.name, errs, m.want)
		}
	}
}
