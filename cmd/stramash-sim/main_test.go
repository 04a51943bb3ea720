package main

import (
	"io"
	"testing"
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
		{[]string{"cluster", "-os", "popcorn-shm", "-model", "separated", "-servers", "2", "-requests", "120"}, "cluster"},
		{[]string{"prod", "-kind", "locked", "-regime", "popcorn", "-cores", "2", "-requests", "120"}, "prod"},
		{[]string{"tenants", "-n", "2", "-regime", "popcorn"}, "tenants"},
		{[]string{"bogus"}, ""},
		{[]string{"prod", "cluster"}, ""},
		{[]string{"fileio", "extra"}, ""},
		{[]string{"cluster", "-servers", "-1"}, ""},
		{[]string{"cluster", "-requests", "-5"}, ""},
		{[]string{"prod", "-cores", "-1"}, ""},
		{[]string{"tenants", "-n", "-1"}, ""},
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
