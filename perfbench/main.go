// Command perfbench is antsearch's benchmark. One invocation runs one
// workload and prints, as the last line of standard output, a JSON object
// with the keys correct, attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload megacell --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
// measured with no instrumentation beyond one timestamp per operation. With
// --trace 1 the run records spans from the benchmark's own code around calls
// into each module and prints the per-layer ledger instead (see ledger.go
// and METRICS.md). run.sh builds this program and cmd/antserve from the
// checkout it runs in, so the code under test is always the checkout's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options carries the command line every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	antserve string // path of the antserve binary under test
	tmp      string // scratch directory inside the checkout
}

// workloads maps each workload name to its end-to-end run.
var workloads = map[string]func(options, *tally) (map[string]metric, error){
	"megacell":   runMegacell,
	"serve-hit":  func(o options, t *tally) (map[string]metric, error) { return runServe(o, t, hitClass) },
	"serve-miss": func(o options, t *tally) (map[string]metric, error) { return runServe(o, t, missClass) },
	"suite":      runSuite,
}

func main() {
	var o options
	var trace int
	var probe bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: megacell, serve-hit, serve-miss or suite")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&o.antserve, "antserve", "", "antserve binary under test")
	flag.StringVar(&o.tmp, "tmp", "", "scratch directory (created if missing)")
	flag.BoolVar(&probe, "setup-probe", false, "build the experiment registry and exit (the suite's timed set-up)")
	flag.Parse()
	if probe {
		if err := setupProbe(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if o.antserve == "" || o.tmp == "" {
		return fmt.Errorf("--antserve and --tmp are required (run the benchmark through run.sh)")
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%v trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var t tally
	var metrics map[string]metric
	var err error
	if o.trace {
		metrics, err = runLedger(o, &t)
	} else {
		metrics, err = wl(o, &t)
	}
	if err != nil {
		return err
	}
	t.report(os.Stderr)
	line, err := json.Marshal(result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations. An operation is a measured
// unit of work (trial, request, experiment run) or a correctness check made
// outside the timed region; a failure of either counts against the run.
type tally struct {
	attempted, failed int
	reasons           map[string]int
}

// op records n operations, failed of which did not succeed for the given
// reason.
func (t *tally) op(n, failed int, reason string) {
	t.attempted += n
	if failed > 0 {
		t.failed += failed
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[reason] += failed
	}
}

// check records one correctness check.
func (t *tally) check(ok bool, reason string) {
	if ok {
		t.op(1, 0, "")
	} else {
		t.op(1, 1, reason)
	}
}

// report prints the failure reasons, most frequent first.
func (t *tally) report(w io.Writer) {
	reasons := make([]string, 0, len(t.reasons))
	for r := range t.reasons {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool {
		if t.reasons[reasons[i]] != t.reasons[reasons[j]] {
			return t.reasons[reasons[i]] > t.reasons[reasons[j]]
		}
		return reasons[i] < reasons[j]
	})
	for _, r := range reasons {
		fmt.Fprintf(w, "perfbench: FAILED %d× %s\n", t.reasons[r], r)
	}
	fmt.Fprintf(w, "perfbench: %d attempted, %d failed\n", t.attempted, t.failed)
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minTailSamples is the fewest latency samples a run collects: p95 then has
// at least ten samples beyond it.
const minTailSamples = 200

// peakRSSMB reads VmHWM, the peak resident set size, of a process from
// /proc, in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// endToEnd assembles the end-to-end metrics every workload reports.
func endToEnd(setup []time.Duration, ops int, wall time.Duration, lat []float64, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(secs(setup)), "s"},
		"ops_per_s":   {float64(ops) / wall.Seconds(), "1/s"},
		"p50_ms":      {quantile(lat, 0.50), "ms"},
		"p95_ms":      {quantile(lat, 0.95), "ms"},
		"peak_rss_mb": {rssMB, "MB"},
	}
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
