package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenFindings is a fixed, deliberately out-of-order finding set; the
// writer must emit it in canonical order regardless of input order.
func goldenFindings() []Finding {
	return []Finding{
		{Analyzer: "storeerr", File: "internal/cache/store.go", Line: 40, Col: 2,
			Message: "error result of tmp.Close is discarded; a persistence-path failure must be retried, counted or propagated"},
		{Analyzer: "wiretag", File: "internal/metrics/row.go", Line: 12, Col: 5,
			Message: `field Time of wire struct Row carries omitempty; zero values must survive the round-trip`,
			Edits:   []Edit{{File: "internal/metrics/row.go", Start: 100, End: 130, NewText: "`json:\"time\"`"}}},
		{Analyzer: "detrand", File: "internal/sim/sim.go", Line: 7, Col: 2,
			Message: "import of math/rand (ambiently seeded RNG) in deterministic engine package antsearch/internal/sim; derive randomness from internal/xrand streams"},
		{Analyzer: "hotpath", File: "internal/sim/sim.go", Line: 90, Col: 14,
			Message: "hotpath runLoop: call of sim.agentError allocates (fmt.Errorf call); hoist the allocation out of the hot path or allow it with a reason"},
	}
}

// checkGolden compares got against the named golden file, rewriting it when
// the test runs with -update (via the UPDATE_GOLDEN env var).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("updating %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestWriteJSONGolden pins the -json report byte-for-byte: the report is a
// machine interface (CI turns it into ::error annotations), so its shape and
// ordering are wire commitments like any other schema in this repository.
func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenFindings()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	checkGolden(t, "golden_report.json", buf.Bytes())
}

// TestWriteJSONOrderIndependent proves canonical ordering: shuffled input
// produces identical bytes.
func TestWriteJSONOrderIndependent(t *testing.T) {
	var a, b bytes.Buffer
	fs := goldenFindings()
	if err := WriteJSON(&a, fs); err != nil {
		t.Fatal(err)
	}
	rev := make([]Finding, 0, len(fs))
	for i := len(fs) - 1; i >= 0; i-- {
		rev = append(rev, fs[i])
	}
	if err := WriteJSON(&b, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("WriteJSON output depends on input order:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

// TestApplyFixes drives the fixer over an in-memory file: non-overlapping
// fixes land back-to-front, unfixable findings are ignored, and of two
// overlapping fixes exactly one lands (the later-offset one, by the
// descending application order) while the other is left for the next run
// against the rewritten file.
func TestApplyFixes(t *testing.T) {
	files := map[string][]byte{
		"a.go": []byte("0123456789"),
	}
	findings := []Finding{
		{Analyzer: "wiretag", File: "a.go", Line: 1, Col: 1, // overlaps the third: applied second, skipped
			Edits: []Edit{{File: "a.go", Start: 2, End: 4, NewText: "XY"}}},
		{Analyzer: "wiretag", File: "a.go", Line: 1, Col: 7,
			Edits: []Edit{{File: "a.go", Start: 6, End: 8, NewText: "Z"}}},
		{Analyzer: "wiretag", File: "a.go", Line: 1, Col: 3,
			Edits: []Edit{{File: "a.go", Start: 3, End: 5, NewText: "!"}}},
		{Analyzer: "detrand", File: "a.go", Line: 1, Col: 1}, // no edits: not fixable
	}
	fixed, err := ApplyFixes(findings,
		func(name string) ([]byte, error) { return files[name], nil },
		func(name string, data []byte) error { files[name] = data; return nil },
	)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if fixed != 2 {
		t.Errorf("fixed %d findings, want 2 (the overlapping one is skipped)", fixed)
	}
	if got, want := string(files["a.go"]), "012!5Z89"; got != want {
		t.Errorf("rewritten file = %q, want %q", got, want)
	}
}
