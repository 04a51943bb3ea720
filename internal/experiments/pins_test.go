package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// pins is every pinned simulated number the package checks, each a
// rendered text file. A pin that moved fails with every moved line and
// field, and its fresh render is left beside it as <file>.got: accepting
// the move is moving that file over the pin. short marks the pins cheap
// enough for -short.
var pins = []pin{
	{"redisprod-exact", exactPin, false, exactOnce},
	{"cluster-cells", "testdata/pins/cluster_cells.txt", true, clusterCells},
	{"extras-full", "../../extras_full.txt", false, extrasFull},
	{"experiments-full", "../../experiments_full.txt", false, experimentsFull},
}

type pin struct {
	name, file string
	short      bool
	render     func() (string, error)
}

func TestPins(t *testing.T) {
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			if testing.Short() && !p.short {
				t.Skip("long pin")
			}
			t.Parallel()
			testPin(t, p)
		})
	}
}

// testPin renders p and fails with checkPin's report if it moved.
func testPin(t *testing.T, p pin) {
	t.Helper()
	got, err := p.render()
	if err != nil {
		t.Fatal(err)
	}
	report, err := checkPin(p.file, got)
	if err != nil {
		t.Fatal(err)
	}
	if report != "" {
		t.Error(report)
	}
}

// checkPin compares got with the pin in file, "" when they match. Else it
// writes got to file+".got" and reports every differing line of a line
// diff: a changed line by its pin line number, row key (first field) and
// each moved field's name and old → new; a removed or added line whole;
// then the mv that accepts the move. A new pin starts as an empty file.
func checkPin(file, got string) (string, error) {
	raw, err := os.ReadFile(file)
	if err != nil || string(raw) == got {
		return "", err
	}
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	}
	old, cur := split(string(raw)), split(got)
	// lcs[i][j] is the longest common subsequence of old[i:] and cur[j:].
	lcs := make([][]int, len(old)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(cur)+1)
	}
	for i := len(old) - 1; i >= 0; i-- {
		for j := len(cur) - 1; j >= 0; j-- {
			if old[i] == cur[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var b strings.Builder
	// A hunk's added line pairs with its next removed line of the same row
	// key; the removed lines it skips and those left over were removed.
	var dels, adds []int
	flush := func() {
		d := 0
		for _, a := range adds {
			k := d
			for k < len(dels) && rowKey(old[dels[k]]) != rowKey(cur[a]) {
				k++
			}
			if k == len(dels) {
				fmt.Fprintf(&b, "%s.got:%d added: %s\n", file, a+1, cur[a])
				continue
			}
			for ; d < k; d++ {
				fmt.Fprintf(&b, "%s:%d removed: %s\n", file, dels[d]+1, old[dels[d]])
			}
			fmt.Fprintf(&b, "%s:%d %s\n", file, dels[k]+1, lineMove(old[dels[k]], cur[a]))
			d = k + 1
		}
		for ; d < len(dels); d++ {
			fmt.Fprintf(&b, "%s:%d removed: %s\n", file, dels[d]+1, old[dels[d]])
		}
		dels, adds = dels[:0], adds[:0]
	}
	for i, j := 0, 0; i < len(old) || j < len(cur); {
		switch {
		case i < len(old) && j < len(cur) && old[i] == cur[j]:
			flush()
			i, j = i+1, j+1
		case j < len(cur) && (i == len(old) || lcs[i][j+1] >= lcs[i+1][j]):
			adds, j = append(adds, j), j+1
		default:
			dels, i = append(dels, i), i+1
		}
	}
	flush()
	if err := os.WriteFile(file+".got", []byte(got), 0o644); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(file)
	fmt.Fprintf(&b, "to accept: mv %s.got %s", abs, abs)
	return b.String(), err
}

// rowKey is a line's first field, "" for a blank line.
func rowKey(line string) string {
	f := strings.Fields(line)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

// lineMove renders a changed line as its row key and every moved field:
// by name for a name=value or Name:value field, else by position.
func lineMove(old, cur string) string {
	of, cf := strings.Fields(old), strings.Fields(cur)
	if len(of) != len(cf) {
		return fmt.Sprintf("%q → %q", old, cur)
	}
	s := rowKey(old) + ":"
	for j := range of {
		if of[j] == cf[j] {
			continue
		}
		o, c := strings.TrimLeft(of[j], "{["), strings.TrimLeft(cf[j], "{[")
		if k := strings.IndexAny(o, "=:"); k > 0 && strings.HasPrefix(c, o[:k+1]) {
			s += fmt.Sprintf(" %s %s → %s", o[:k], o[k+1:], c[k+1:])
		} else {
			s += fmt.Sprintf(" field %d %s → %s", j+1, of[j], cf[j])
		}
	}
	if s == rowKey(old)+":" {
		s += " spacing only"
	}
	return s
}

// TestCheckPinListsEveryMove: one call reports every moved field of every
// changed line and every added line, and leaves the fresh render beside
// the pin; a matching render writes nothing.
func TestCheckPinListsEveryMove(t *testing.T) {
	file := filepath.Join(t.TempDir(), "pin.txt")
	const pin = "a x=1 y=2\nb {P50:3 P99:4}\nc 5\n"
	if err := os.WriteFile(file, []byte(pin), 0o644); err != nil {
		t.Fatal(err)
	}
	if report, err := checkPin(file, pin); report != "" || err != nil {
		t.Fatalf("a matching render reported %q, %v", report, err)
	}
	if _, err := os.Stat(file + ".got"); !os.IsNotExist(err) {
		t.Fatalf("a matching render wrote %s.got (%v)", file, err)
	}
	const got = "a x=7 y=9\nnew 1\nb {P50:6 P99:8}\nc 5\n"
	report, err := checkPin(file, got)
	for _, want := range []string{"pin.txt:1 a: x 1 → 7 y 2 → 9\n", "pin.txt.got:2 added: new 1\n", "pin.txt:2 b: P50 3 → 6 P99 4} → 8}\n", "mv "} {
		if !strings.Contains(report, want) || err != nil {
			t.Errorf("report lacks %q (%v):\n%s", want, err, report)
		}
	}
	if raw, err := os.ReadFile(file + ".got"); string(raw) != got {
		t.Errorf("%s.got = %q, %v; want the fresh render", file, raw, err)
	}
}

// clusterCells renders the cluster experiment's serving cells at 40
// requests, one line each: the traffic figures plus the engine's hand-offs
// and simulated cycles, for both personalities, one and four servers,
// read-only and mixed traffic, with and without per-request server
// compute. The values were captured from the dedicated single-task socket
// server before it became ServeProd's zero-worker configuration. The cycle
// total catches work the traffic cannot see: the generator's clock starts
// once every server has answered its connect.
func clusterCells() (string, error) {
	var b strings.Builder
	for _, k := range []struct {
		os    machine.OSKind
		model mem.Model
	}{{machine.StramashOS, mem.Shared}, {machine.PopcornSHM, mem.Separated}} {
		for _, servers := range []int{1, 4} {
			for _, setEvery := range []int{0, 10} {
				for _, compute := range []int64{0, 20000} {
					p := clusterParams(Quick)
					p.Requests, p.SetEvery, p.ServerCompute = 40, setEvery, compute
					row, err := clusterRun(k.os, k.model, servers, p)
					if err != nil {
						return "", err
					}
					tr := row.Traffic
					fmt.Fprintf(&b, "%v/%dsrv/set%d/compute%d done=%d misses=%d digest=%#x p50=%d p99=%d elapsed=%d handoffs=%d cycles=%d\n",
						k.os, servers, setEvery, compute, tr.Done, tr.Misses, tr.Digest, tr.P50, tr.P99, tr.Elapsed,
						row.Engine["handoffs"], row.Engine["serial_cycles"])
				}
			}
		}
	}
	return b.String(), nil
}

// extrasFull renders the five extras at full scale in Extra's order, each
// as `stramash-bench -only <id> -scale full` prints it: through the pool
// and Report, at the host's width.
func extrasFull() (string, error) {
	var b strings.Builder
	for _, o := range RunPool(Extra(), Full, 0) {
		if err := printRun(&b, []Outcome{o}); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// experimentsFull renders every pinned spec at full scale as
// `stramash-bench -scale full` prints them, at the host's width.
func experimentsFull() (string, error) {
	var b strings.Builder
	err := printRun(&b, RunPool(All(), Full, 0))
	return b.String(), err
}

// printRun writes outcomes as one stramash-bench run prints them to
// stdout: Report, then the shape-check total.
func printRun(b *strings.Builder, outcomes []Outcome) error {
	n, err := Report(b, outcomes)
	switch {
	case err != nil:
		return err
	case n > 0:
		fmt.Fprintf(b, "total shape deviations: %d\n", n)
	default:
		b.WriteString("all shape checks reproduced\n")
	}
	return nil
}
