package stramash_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// waitLoopAllow lists the hand-written wait loops outside internal/sim and
// internal/kernel, the two layers that own the wait primitives
// (sim.Thread.SpinWhile, kernel.Task.SpinWait), by file and enclosing
// function, each with the reason it does not use one. A loop whose body
// both advances a simulated clock and calls YieldPoint is a wait loop; a
// new one fails TestNoHandWrittenWaitLoops until it uses a primitive or is
// listed here.
var waitLoopAllow = map[string]string{
	"bench/layers.go:sweepSim":                          "the engine microbenchmark's hand-off loops: they time yield points and wait for nothing",
	"internal/microbench/wakelatency.go:RunWakeLatency": "the probe is a syscall: FutexWake until the waiter is queued",
	"internal/net/fabric.go:acquire":                    "switch arbitration: each attempt advances to the clock the switch frees at",
	"internal/net/fabric.go:Transmit":                   "retransmit backoff: the wait doubles each attempt and has no disturber",
	"internal/redisapp/netclient.go:GenerateTraffic":    "the probe is a syscall over the NIC's RX ring",
	"internal/redisapp/prodserver.go:prodFrontend":      "the probe is a syscall over the NIC's RX ring",
	"internal/redisapp/server.go:Run":                   "Fig. 14 harness: the server's poll and the NIC's flow-control wait probe the ring in simulated memory",
	"internal/stramash/stramash.go:lockPTL":             "the probe is a CAS on simulated memory",
}

// waitLoops returns the wait loops in the Go source of f, as
// "path:function" keys, one per loop.
func waitLoops(fset *token.FileSet, path string, f *ast.File) []string {
	var loops []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch l := n.(type) {
			case *ast.ForStmt:
				body = l.Body
			case *ast.RangeStmt:
				body = l.Body
			default:
				return true
			}
			if advances, yields := loopCalls(body); advances && yields {
				loops = append(loops, path+":"+fn.Name.Name)
			}
			return true
		})
	}
	return loops
}

// loopCalls reports whether a loop body calls Advance (or AdvanceTo) and
// YieldPoint, outside nested loops and function literals, which are
// judged on their own.
func loopCalls(body *ast.BlockStmt) (advances, yields bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Advance", "AdvanceTo":
					advances = true
				case "YieldPoint":
					yields = true
				}
			}
		}
		return true
	})
	return advances, yields
}

// waitLoopErrors checks the loops found against the allowlist: every loop
// is listed, and every entry still names a loop.
func waitLoopErrors(found []string, allow map[string]string) []string {
	var errs []string
	for _, k := range found {
		if _, ok := allow[k]; !ok {
			errs = append(errs, fmt.Sprintf("%s: a hand-written wait loop (Advance and YieldPoint in one loop body); use sim.Thread.SpinWhile or kernel.Task.SpinWait, or list it with a reason", k))
		}
	}
	for k := range allow {
		if !slices.Contains(found, k) {
			errs = append(errs, fmt.Sprintf("%s: listed, but there is no wait loop there", k))
		}
	}
	slices.Sort(errs)
	return errs
}

func TestNoHandWrittenWaitLoops(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "internal/sim" || path == "internal/kernel" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		found = append(found, waitLoops(fset, filepath.ToSlash(path), f)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range waitLoopErrors(found, waitLoopAllow) {
		t.Error(e)
	}

	// A flag spin written by hand, as the lock spins were before
	// SpinWhile, must be caught.
	const src = `package p
func (m *M) acquire(pt *P) {
	for m.busy {
		pt.T.Advance(150)
		pt.T.YieldPoint()
	}
	m.busy = true
}`
	f, err := parser.ParseFile(fset, "spin.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := waitLoops(fset, "internal/p/spin.go", f)
	if errs := waitLoopErrors(got, nil); len(errs) != 1 || !strings.Contains(errs[0], "internal/p/spin.go:acquire") {
		t.Errorf("a hand-written flag spin was not caught: %q", errs)
	}
}
