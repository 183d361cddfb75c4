package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runToFile invokes run with stdout redirected to a temp file and returns the
// captured output (run takes an *os.File because the table renderers stream).
func runToFile(t *testing.T, args []string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(args, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestRunSingleExperimentQuick(t *testing.T) {
	t.Parallel()

	out, err := runToFile(t, []string{"-run", "E1", "-scale", "quick", "-seed", "3"})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{"==== E1", "Theorem 3.1", "check [PASS]", "elapsed:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "[FAIL]") {
		t.Errorf("E1 quick reported failing checks:\n%s", out)
	}
}

func TestRunFormats(t *testing.T) {
	t.Parallel()

	out, err := runToFile(t, []string{"-run", "E2", "-scale", "quick", "-format", "markdown"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "| rho |") && !strings.Contains(out, "| --- |") {
		t.Errorf("markdown table missing:\n%s", out)
	}

	out, err = runToFile(t, []string{"-run", "E2", "-scale", "quick", "-format", "csv"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "rho,bias,k") {
		t.Errorf("csv header missing:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	t.Parallel()

	cases := [][]string{
		{"-run", "E99"},
		{"-scale", "enormous"},
		{"-format", "pdf"},
		{"-definitely-not-a-flag"},
		{"-workers", "-1"},
	}
	for _, args := range cases {
		if _, err := runToFile(t, args); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
	if _, err := runToFile(t, []string{"-workers", "-1"}); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("-workers -1: error %v does not name the flag", err)
	}
}
