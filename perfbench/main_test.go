package main

import (
	"math"
	"net/http"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.95, 4.8}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestTallyCountsOperationsAndChecks(t *testing.T) {
	var tl tally
	tl.op(100, 0, "")
	tl.op(10, 3, "bad rows")
	tl.check(true, "unused")
	tl.check(false, "digest mismatch")
	tl.op(5, 2, "bad rows")
	if tl.attempted != 117 || tl.failed != 6 {
		t.Fatalf("attempted/failed = %d/%d, want 117/6", tl.attempted, tl.failed)
	}
	if tl.reasons["bad rows"] != 5 || tl.reasons["digest mismatch"] != 1 || len(tl.reasons) != 2 {
		t.Fatalf("reasons = %v", tl.reasons)
	}
}

func TestCheckResponse(t *testing.T) {
	row := func(cached string) string {
		return `{"index":0,"cached":` + cached + `,"stats":{}}` + "\n"
	}
	rows := func(n int, cached string) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, row(cached)...)
		}
		return b
	}
	hit := rows(serveCells, "true")
	for _, c := range []struct {
		name  string
		r     response
		class requestClass
		want  []byte
		fails bool
	}{
		{"hit ok", response{status: 200, body: hit}, hitClass, hit, false},
		{"miss ok", response{status: 200, body: rows(serveCells, "false")}, missClass, nil, false},
		{"status", response{status: http.StatusServiceUnavailable, body: hit}, hitClass, hit, true},
		{"short", response{status: 200, body: rows(serveCells-1, "true")}, hitClass, hit, true},
		{"computed row in a hit", response{status: 200, body: append(rows(serveCells-1, "true"), row("false")...)}, hitClass, hit, true},
		{"cached row in a miss", response{status: 200, body: append(rows(serveCells-1, "false"), row("true")...)}, missClass, nil, true},
		{"error row", response{status: 200, body: append(rows(serveCells-1, "false"), `{"index":71,"error":"boom"}`+"\n"...)}, missClass, nil, true},
		{"hit body differs", response{status: 200, body: hit}, hitClass, rows(serveCells, "true ")[1:], true},
	} {
		if got := checkResponse(c.r, nil, c.class, c.want); (got != "") != c.fails {
			t.Errorf("%s: checkResponse = %q, want failure %v", c.name, got, c.fails)
		}
	}
}

func TestNthLineCopiesOneRow(t *testing.T) {
	body := []byte("a\nbb\nccc\n")
	got := nthLine(body, 1)
	if string(got) != "bb\n" {
		t.Fatalf("nthLine(1) = %q, want %q", got, "bb\n")
	}
	body[2] = 'x'
	if string(got) != "bb\n" {
		t.Fatalf("nthLine aliases its input: %q", got)
	}
	if got := nthLine(body, 3); got != nil {
		t.Fatalf("nthLine past the end = %q, want nil", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "cell", Start: 0, End: 100, Parent: -1},
		// Two trials in parallel: the cell's self time counts their union once.
		{Name: "trial", Start: 10, End: 60, Parent: 0},
		{Name: "trial", Start: 40, End: 90, Parent: 0},
		{Name: "emit", Start: 15, End: 25, Parent: 1},
		{Name: "emit", Start: 20, End: 30, Parent: 1}, // overlaps the previous emit
		{Name: "place", Start: 40, End: 42, Parent: 2},
		{Name: "merge", Start: 95, End: 95, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]int64{"cell": 20, "trial": 50 - 15 + 50 - 2, "emit": 20, "place": 2, "merge": 0}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if tot := totalByName(spans)["trial"]; tot != 100 {
		t.Errorf("total trial time = %d, want 100", tot)
	}
}

func TestCoveredClipsToTheParent(t *testing.T) {
	if got := covered(10, 20, [][2]int64{{0, 12}, {18, 30}, {14, 15}}); got != 5 {
		t.Errorf("covered = %d, want 5", got)
	}
}

func TestUniformRadii(t *testing.T) {
	// Schedule (ell, i, j): (0,0,0) (1,0,0) (1,1,0) (1,1,1) (2,0,0) (2,1,0)
	// (2,1,1) (2,2,0); radius = floor(sqrt(2^(i+j) / max(j,1)^1.5)).
	want := []int{1, 1, 1, 2, 1, 1, 2, 2}
	got := uniformRadii(len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("uniformRadii = %v, want %v", got, want)
		}
	}
}
