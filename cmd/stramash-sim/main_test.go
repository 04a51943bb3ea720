package main

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		args []string
		want string // subcommand run; "" = usage error
	}{
		{nil, "npb"},
		{[]string{"-os", "stramash", "-bench", "IS", "-class", "T", "-trace", "t.json", "-trace-summary"}, "npb"},
		{[]string{"npb", "-os", "popcorn-shm", "-model", "separated", "-l3", "1048576", "-no-migrate"}, "npb"},
		{[]string{"fileio"}, "fileio"},
		{[]string{"cluster", "-os", "popcorn-shm", "-model", "separated", "-servers", "2", "-scale", "quick"}, "cluster"},
		{[]string{"prod", "-kind", "locked", "-regime", "popcorn", "-cores", "2", "-scale", "full"}, "prod"},
		{[]string{"tenants", "-n", "2", "-regime", "popcorn"}, "tenants"},
		{[]string{"bogus"}, ""},
		{[]string{"prod", "cluster"}, ""},
		{[]string{"fileio", "extra"}, ""},
		{[]string{"cluster", "-servers", "-1"}, ""},
		{[]string{"cluster", "-scale", "huge"}, ""},
		{[]string{"prod", "-scale", ""}, ""},
		{[]string{"cluster", "-requests", "120"}, ""},
		{[]string{"prod", "-cores", "-1"}, ""},
		{[]string{"tenants", "-n", "-1"}, ""},
		{[]string{"tenants", "-scale", "full"}, ""},
		{[]string{"-l3", "-4096"}, ""},
		{[]string{"prod", "-servers", "2"}, ""},
		{[]string{"fileio", "-os", "stramash"}, ""},
		{[]string{"-cluster", "2"}, ""},
	}
	for _, c := range cases {
		name, job, err := parse(c.args, io.Discard)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("%q: accepted as %s, want a usage error", c.args, name)
		case c.want != "" && err != nil:
			t.Errorf("%q: rejected: %v", c.args, err)
		case c.want != "" && (name != c.want || job == nil):
			t.Errorf("%q: ran %s (job %v), want %s", c.args, name, job != nil, c.want)
		}
	}
}

// TestClusterTaskErrorNamesCause runs a cluster cell whose servers cannot
// serve: the vanilla OS has no cross-kernel migration, so each server task
// fails and the load generator waits forever for replies. The job must
// fail with the server's own error, not only the deadlock it leaves.
func TestClusterTaskErrorNamesCause(t *testing.T) {
	_, job, err := parse([]string{"cluster", "-os", "vanilla", "-servers", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	err = job(io.Discard)
	if err == nil || !strings.Contains(err.Error(), "vanilla OS cannot migrate across kernels") {
		t.Errorf("err = %v, want the server task's migration error", err)
	}
}

// TestCellRowsMatchGrid runs each extra's subcommand and checks that every
// row it prints equals, field for field, the row the extra's grid renders
// for that cell at the same scale: at -scale full the pinned extras_full.txt,
// at quick scale (fileio, tenants) a fresh grid run.
func TestCellRowsMatchGrid(t *testing.T) {
	pinned, err := os.ReadFile("../../extras_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	filesys, err := experiments.Filesys(experiments.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := experiments.Tenants(experiments.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		grid string // text holding the grid's rendering, after its "== name ==" line
		keys int    // leading columns that name the cell
	}{
		{[]string{"prod", "-kind", "sharded", "-regime", "popcorn", "-cores", "4", "-scale", "full"}, string(pinned), 3},
		{[]string{"cluster", "-os", "popcorn-shm", "-model", "separated", "-servers", "2", "-scale", "full"}, string(pinned), 2},
		{[]string{"fileio"}, "== " + filesys.Name() + " ==\n" + filesys.Render(), 2},
		{[]string{"tenants", "-n", "2", "-regime", "popcorn"}, "== " + tenants.Name() + " ==\n" + tenants.Render(), 2},
	}
	for _, c := range cases {
		_, job, err := parse(c.args, io.Discard)
		if err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		var out bytes.Buffer
		if err := job(&out); err != nil {
			t.Errorf("%q: %v\n%s", c.args, err, out.String())
			continue
		}
		header, _, _ := strings.Cut(out.String(), "\n")
		at := strings.Index(c.grid, header+"\n")
		if at < 0 {
			t.Errorf("%q: grid has no section %q", c.args, header)
			continue
		}
		grid := tableRows(c.grid[at:])
		rows := tableRows(out.String())
		if len(rows) == 0 {
			t.Errorf("%q printed no rows:\n%s", c.args, out.String())
		}
		for _, row := range rows {
			var match []string
			for _, g := range grid {
				if reflect.DeepEqual(g[:c.keys], row[:c.keys]) {
					match = g
				}
			}
			if !reflect.DeepEqual(row, match) {
				t.Errorf("%q: printed row %q, grid row %q", c.args, row, match)
			}
		}
	}
}

// tableRows returns the cells of the data rows of the first table in text:
// the lines after its dashed separator with as many columns as it has.
func tableRows(text string) [][]string {
	var rows [][]string
	cols := 0
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case cols == 0 && len(f) > 0 && strings.Trim(line, "- ") == "":
			cols = len(f)
		case cols > 0 && len(f) == cols:
			rows = append(rows, f)
		case cols > 0:
			return rows
		}
	}
	return rows
}
