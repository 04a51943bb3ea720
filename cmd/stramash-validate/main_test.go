package main

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// fakeResult lets the tests drive run() without simulating anything.
type fakeResult struct {
	name  string
	shape []string
}

func (f fakeResult) Name() string          { return f.name }
func (f fakeResult) Render() string        { return f.name + " table\n" }
func (f fakeResult) ShapeErrors() []string { return f.shape }

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
// step invoking stramash-validate genuinely gates on the validation.
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
		if got := run(c.specs, experiments.Quick, 1, io.Discard, io.Discard); got != c.want {
			t.Errorf("%s: run exited %d, want %d", c.label, got, c.want)
		}
	}
}

// TestRunReportsDeviation checks the human-readable output names the
// violated claim and the final verdict line matches the exit code.
func TestRunReportsDeviation(t *testing.T) {
	var out strings.Builder
	code := run([]experiments.Spec{
		spec("deviant", fakeResult{name: "deviant", shape: []string{"claim violated"}}, nil),
	}, experiments.Quick, 1, &out, io.Discard)
	if code != 3 {
		t.Fatalf("exit code %d, want 3", code)
	}
	for _, want := range []string{"claim violated", "1 shape deviation"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestValidationIDsExist pins the suite to registered experiments.
func TestValidationIDsExist(t *testing.T) {
	for _, id := range validationIDs {
		if _, ok := experiments.Find(id); !ok {
			t.Errorf("validation suite references unknown experiment %q", id)
		}
	}
}
