package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	t.Parallel()

	all := All()
	if len(all) != 11 {
		t.Fatalf("registry has %d experiments, want 11", len(all))
	}
	seen := make(map[string]bool)
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %d is incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if !strings.HasPrefix(e.ID, "E") {
			t.Errorf("experiment ID %q does not follow the E<n> convention", e.ID)
		}
	}
	// IDs are sorted numerically: E2 before E10.
	if all[0].ID != "E1" || all[len(all)-1].ID != "E11" {
		t.Errorf("registry order wrong: first %s, last %s", all[0].ID, all[len(all)-1].ID)
	}

	if _, ok := ByID("E3"); !ok {
		t.Error("ByID(E3) not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) should not exist")
	}
}

func TestScaleString(t *testing.T) {
	t.Parallel()

	if Quick.String() != "quick" || Standard.String() != "standard" || Full.String() != "full" {
		t.Error("scale names wrong")
	}
	if Scale(9).String() == "" {
		t.Error("unknown scale should still render")
	}
	// The zero value behaves as Standard.
	var cfg Config
	if cfg.scale() != Standard {
		t.Errorf("zero-value config scale = %v, want standard", cfg.scale())
	}
}

func TestPickBScale(t *testing.T) {
	t.Parallel()

	if got := pick(Config{Scale: Quick}, 1, 2, 3); got != 1 {
		t.Errorf("pick quick = %d", got)
	}
	if got := pick(Config{Scale: Standard}, 1, 2, 3); got != 2 {
		t.Errorf("pick standard = %d", got)
	}
	if got := pick(Config{Scale: Full}, 1, 2, 3); got != 3 {
		t.Errorf("pick full = %d", got)
	}
	if got := pick(Config{}, 1, 2, 3); got != 2 {
		t.Errorf("pick default = %d", got)
	}
}

func TestHelpers(t *testing.T) {
	t.Parallel()

	if hashLabel("a") == hashLabel("b") {
		t.Error("hashLabel collides on trivial inputs")
	}
	if hashLabel("same") != hashLabel("same") {
		t.Error("hashLabel is not deterministic")
	}
	if got := log2Floor1(1); got != 1 {
		t.Errorf("log2Floor1(1) = %v, want 1 (floored)", got)
	}
	if got := log2Floor1(8); got != 3 {
		t.Errorf("log2Floor1(8) = %v, want 3", got)
	}
	if got := polylog(16, 0.5); got < 7.9 || got > 8.1 {
		t.Errorf("polylog(16, 0.5) = %v, want 8", got)
	}
	if got := geometricInts(1, 16); len(got) != 5 || got[4] != 16 {
		t.Errorf("geometricInts(1, 16) = %v", got)
	}
	if got := geometricInts(3, 2); got != nil {
		t.Errorf("geometricInts with start > limit = %v, want nil", got)
	}
}

func TestOutcomeChecks(t *testing.T) {
	t.Parallel()

	var o Outcome
	if !o.Pass() {
		t.Error("an outcome with no checks passes vacuously")
	}
	o.addCheck("good", true, "fine")
	o.addFinding("found %d things", 3)
	if !o.Pass() {
		t.Error("outcome with only passing checks should pass")
	}
	o.addCheck("bad", false, "broken %s", "badly")
	if o.Pass() {
		t.Error("outcome with a failing check should not pass")
	}
	if len(o.Findings) != 1 || o.Findings[0] != "found 3 things" {
		t.Errorf("findings = %v", o.Findings)
	}
	if o.Checks[1].Detail != "broken badly" {
		t.Errorf("check detail = %q", o.Checks[1].Detail)
	}
}

// TestQuickExperimentsE1E2 runs the two cheapest experiments end to end at
// quick scale: they validate the whole pipeline (factories, Monte-Carlo,
// tables, checks) in a few hundred milliseconds.
func TestQuickExperimentsE1E2(t *testing.T) {
	t.Parallel()

	cfg := Config{Seed: 7, Scale: Quick}
	for _, id := range []string{"E1", "E2"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		out, err := exp.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out.Tables) == 0 {
			t.Errorf("%s produced no tables", id)
		}
		for _, tbl := range out.Tables {
			if tbl.NumRows() == 0 {
				t.Errorf("%s produced an empty table %q", id, tbl.Title())
			}
			if tbl.ASCII() == "" || tbl.Markdown() == "" || tbl.CSV() == "" {
				t.Errorf("%s table %q fails to render", id, tbl.Title())
			}
		}
		if len(out.Checks) == 0 {
			t.Errorf("%s produced no checks", id)
		}
		if !out.Pass() {
			for _, c := range out.Checks {
				if !c.Pass {
					t.Errorf("%s check %s failed: %s", id, c.Name, c.Detail)
				}
			}
		}
	}
}

// TestQuickExperimentE11 runs the fault-injection experiment at quick scale:
// it exercises the fault plans end to end through the experiment sweep path
// and asserts the graceful-degradation checks hold at the small scale too.
func TestQuickExperimentE11(t *testing.T) {
	t.Parallel()

	exp, ok := ByID("E11")
	if !ok {
		t.Fatal("E11 missing")
	}
	out, err := exp.Run(context.Background(), Config{Seed: 7, Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 2 {
		t.Fatalf("E11 produced %d tables, want 2", len(out.Tables))
	}
	for _, tbl := range out.Tables {
		if tbl.NumRows() == 0 {
			t.Errorf("E11 table %q is empty", tbl.Title())
		}
	}
	if !out.Pass() {
		for _, c := range out.Checks {
			if !c.Pass {
				t.Errorf("E11 check %s failed: %s", c.Name, c.Detail)
			}
		}
	}
}

// TestQuickExperimentsCoverageHarness runs E9 (the cheapest exact-engine
// experiment) at quick scale to exercise the coverage path end to end.
func TestQuickExperimentsCoverageHarness(t *testing.T) {
	t.Parallel()

	exp, ok := ByID("E9")
	if !ok {
		t.Fatal("E9 missing")
	}
	out, err := exp.Run(context.Background(), Config{Seed: 11, Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) == 0 || out.Tables[0].NumRows() == 0 {
		t.Fatal("E9 produced no data")
	}
	if !out.Pass() {
		for _, c := range out.Checks {
			if !c.Pass {
				t.Errorf("E9 check %s failed: %s", c.Name, c.Detail)
			}
		}
	}
}

// renderOutcome is everything an experiment reports: its tables, findings
// and checks, as the antexperiments command prints them.
func renderOutcome(o *Outcome) string {
	var b strings.Builder
	for _, t := range o.Tables {
		b.WriteString(t.ASCII())
	}
	for _, f := range o.Findings {
		fmt.Fprintf(&b, "finding: %s\n", f)
	}
	for _, c := range o.Checks {
		fmt.Fprintf(&b, "check %s pass=%t: %s\n", c.Name, c.Pass, c.Detail)
	}
	return b.String()
}

// TestExperimentsWorkerParity runs every registered experiment at quick
// scale under Workers 1 (fully sequential), 0 (GOMAXPROCS) and 3, and
// requires byte-identical outcomes: how a sweep splits its budget between
// cells and trials must change wall time only.
func TestExperimentsWorkerParity(t *testing.T) {
	t.Parallel()

	for _, exp := range All() {
		t.Run(exp.ID, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 0, 3} {
				out, err := exp.Run(context.Background(), Config{Seed: 3, Scale: Quick, Workers: workers})
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				got := renderOutcome(out)
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers %d outcome differs from workers 1:\n%s\nwant:\n%s", workers, got, want)
				}
			}
		})
	}
}
