package stramash_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// wordSizeModulos returns the position of every int(x) % n in files where
// x is an unsigned integer that a 32-bit int cannot always hold. On a
// 64-bit port int(x) is x, on a 32-bit one it may wrap negative and the
// remainder with it, so an address or index computed that way depends on
// the word size; int(x % n) does not.
func wordSizeModulos(fset *token.FileSet, info *types.Info, files []*ast.File) []string {
	var found []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || b.Op != token.REM {
				return true
			}
			conv, ok := ast.Unparen(b.X).(*ast.CallExpr)
			if !ok || len(conv.Args) != 1 {
				return true
			}
			if to := info.Types[conv.Fun]; !to.IsType() || !types.Identical(to.Type, types.Typ[types.Int]) {
				return true
			}
			from, ok := info.TypeOf(conv.Args[0]).Underlying().(*types.Basic)
			if !ok {
				return true
			}
			switch from.Kind() {
			case types.Uint, types.Uint32, types.Uint64, types.Uintptr:
				p := fset.Position(b.Pos())
				found = append(found, fmt.Sprintf("%s:%d: int(%s) %% ...", filepath.ToSlash(p.Filename), p.Line, from))
			}
			return true
		})
	}
	return found
}

// checkSource type-checks one package's files with imp and returns its
// word-size-dependent remainders.
func checkSource(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) ([]string, error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{Importer: imp}).Check(path, fset, files, info); err != nil {
		return nil, err
	}
	return wordSizeModulos(fset, info, files), nil
}

// TestNoWordSizeModulo type-checks every package of the module (its
// program files; imports come from the build's export data) and rejects
// int(x) % n with x unsigned, so that no simulated address or index
// differs between the 64-bit and 32-bit ports. The old dentry-probe line
// of internal/vfs must be caught.
func TestNoWordSizeModulo(t *testing.T) {
	fset := token.NewFileSet()
	const old = `package p

func fnv32(s string) uint32 { return uint32(len(s)) * 16777619 }

func dentryProbe(name string) int { return int(fnv32(name)) % 32 }

func fixed(name string) int { return int(fnv32(name) % 32) }
`
	f, err := parser.ParseFile(fset, "old.go", old, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := checkSource(fset, "p", []*ast.File{f}, nil); err != nil || len(got) != 1 {
		t.Fatalf("the old dentryProbe source: %v, %v; want the one line of dentryProbe", got, err)
	}

	out, err := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	exports := map[string]string{}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			path, err := filepath.Rel(wd, filepath.Join(p.Dir, name))
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		found, err := checkSource(fset, p.ImportPath, files, imp)
		if err != nil {
			t.Fatalf("%s: %v", p.ImportPath, err)
		}
		for _, e := range found {
			t.Errorf("%s: the remainder depends on the word size; convert after it, int(x %% n)", e)
		}
	}
}
