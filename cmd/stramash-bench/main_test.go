package main

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// fakeResult lets the tests drive execute() without simulating anything.
type fakeResult struct {
	name  string
	shape []string
}

func (f fakeResult) Name() string          { return f.name }
func (f fakeResult) Render() string        { return f.name + " table\n" }
func (f fakeResult) ShapeErrors() []string { return f.shape }

// quick runs the injected specs sequentially at quick scale.
var quick = options{scale: experiments.Quick, parallel: 1}

func spec(id string, res fakeResult, err error) experiments.Spec {
	return experiments.Spec{ID: id, Run: func(experiments.Scale, int) (experiments.Result, error) {
		if err != nil {
			return nil, err
		}
		return res, nil
	}}
}

// TestRunExitCodes asserts the command's contract: a clean suite exits 0,
// shape deviations exit 3, and an experiment failure exits 1 — so a CI
// step invoking stramash-bench genuinely gates on the shape checks.
func TestRunExitCodes(t *testing.T) {
	clean := spec("clean", fakeResult{name: "clean"}, nil)
	deviant := spec("deviant", fakeResult{name: "deviant", shape: []string{"claim violated"}}, nil)
	broken := spec("broken", fakeResult{}, errors.New("boom"))

	cases := []struct {
		label string
		specs []experiments.Spec
		want  int
	}{
		{"all clean", []experiments.Spec{clean, clean}, 0},
		{"shape deviation", []experiments.Spec{clean, deviant}, 3},
		{"experiment error", []experiments.Spec{broken, clean}, 1},
		{"error wins over deviation", []experiments.Spec{deviant, broken}, 1},
	}
	for _, c := range cases {
		if got := execute(c.specs, quick, io.Discard, io.Discard); got != c.want {
			t.Errorf("%s: run exited %d, want %d", c.label, got, c.want)
		}
	}
}

// TestRunReportsDeviation checks the human-readable output names the
// violated claim and the final verdict line matches the exit code.
func TestRunReportsDeviation(t *testing.T) {
	var out strings.Builder
	code := execute([]experiments.Spec{
		spec("deviant", fakeResult{name: "deviant", shape: []string{"claim violated"}}, nil),
	}, quick, &out, io.Discard)
	if code != 3 {
		t.Fatalf("exit code %d, want 3", code)
	}
	for _, want := range []string{"claim violated", "total shape deviations: 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestValidationIDsExist pins -suite validation to registered experiments.
func TestValidationIDsExist(t *testing.T) {
	specs, err := selectSpecs("", "validation")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(validationIDs) {
		t.Errorf("-suite validation selected %d experiments, want %d", len(specs), len(validationIDs))
	}
}

// TestRunUsageErrors asserts that malformed command lines exit 2 before
// any experiment runs.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-suite", "validation", "-only", "fig8"},
		{"-suite", "no-such-suite"},
		{"-only", "no-such-experiment"},
		{"-scale", "huge"},
		{"-no-such-flag"},
		{"fig8"},
	} {
		if got := run(args, io.Discard, io.Discard); got != 2 {
			t.Errorf("run %q exited %d, want 2", args, got)
		}
	}
}
