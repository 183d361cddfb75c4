package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"antsearch/internal/experiments"
)

const (
	probeRepeat = 31 // --setup-probe processes timed per run
	minSuites   = 20 // fewest whole suites a run times
)

// suiteCheapIDs are the experiments the workers=1 versus workers=nproc
// parity check reruns: the cheapest of the suite at quick scale.
var suiteCheapIDs = []string{"E1", "E2", "E11"}

// suiteRun is one experiment run of the suite workload.
type suiteRun struct {
	id      string
	seed    uint64
	elapsed time.Duration
	failed  int // reproduction checks that did not pass
}

func runSuite(o options, t *tally) (map[string]metric, error) {
	ctx := context.Background()
	setup, err := suiteSetup()
	if err != nil {
		return nil, err
	}

	var (
		lat  []float64
		runs []suiteRun
		wall time.Duration
		h    = sha256.New()
	)
	// Whole suites of consecutive seeds, until --seconds have passed and
	// there are minSuites suite times. One operation is one whole suite:
	// the experiments' costs differ by two orders of magnitude, so a
	// quantile over single experiment runs would only say which experiment
	// sits at that rank.
	deadline := time.Duration(o.seconds * float64(time.Second))
	for s := uint64(0); wall < deadline || len(lat) < minSuites; s++ {
		seed := o.seed + s
		var suite time.Duration
		ok := true
		for _, exp := range experiments.All() {
			start := time.Now()
			out, err := exp.Run(ctx, experiments.Config{Seed: seed, Scale: experiments.Quick, Workers: 0})
			elapsed := time.Since(start)
			suite += elapsed
			good := err == nil && out != nil && len(out.Tables) > 0
			reason := "suite: " + exp.ID + " returned no tables"
			if err != nil {
				reason = "suite: " + exp.ID + ": " + err.Error()
			}
			t.op(1, boolInt(!good), reason)
			if !good {
				ok = false
				continue
			}
			runs = append(runs, suiteRun{id: exp.ID, seed: seed, elapsed: elapsed, failed: failedChecks(out)})
			if s == 0 {
				writeOutcome(h, exp.ID, out)
			}
		}
		wall += suite
		if ok {
			lat = append(lat, float64(suite)/float64(time.Millisecond))
		}
	}
	fmt.Printf("digest suite %x\n", h.Sum(nil))
	suiteParity(ctx, o.seed, t)
	reportChecks(runs)

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	return endToEnd(setup, len(lat), wall, lat, rss), nil
}

// suiteSetup times what antexperiments does before its first experiment:
// starting a process that links the experiment registry, running every
// package's initialisation and building the registry. Each sample runs this
// program with --setup-probe, which does exactly that and exits.
func suiteSetup() ([]time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for r := 0; r < probeRepeat; r++ {
		start := time.Now()
		if err := exec.Command(self, "--setup-probe").Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// setupProbe is the body of a --setup-probe process.
func setupProbe() error {
	if len(experiments.All()) == 0 {
		return errors.New("empty experiment registry")
	}
	return nil
}

// suiteParity reruns the cheap experiments with one worker and with nproc
// workers; their outcomes must render identically.
func suiteParity(ctx context.Context, seed uint64, t *tally) {
	for _, id := range suiteCheapIDs {
		exp, ok := experiments.ByID(id)
		if !ok {
			t.check(false, "suite: no experiment "+id)
			continue
		}
		var digests [2]string
		for i, workers := range []int{1, runtime.NumCPU()} {
			out, err := exp.Run(ctx, experiments.Config{Seed: seed, Scale: experiments.Quick, Workers: workers})
			if err != nil {
				t.check(false, "suite: "+id+": "+err.Error())
				return
			}
			h := sha256.New()
			writeOutcome(h, id, out)
			digests[i] = fmt.Sprintf("%x", h.Sum(nil))
		}
		t.check(digests[0] == digests[1], "suite: "+id+" differs between workers=1 and workers=nproc")
	}
}

// writeOutcome feeds an experiment's tables, findings and checks to h.
func writeOutcome(h hash.Hash, id string, out *experiments.Outcome) {
	fmt.Fprintf(h, "%s\n", id)
	for _, tb := range out.Tables {
		fmt.Fprintf(h, "table %s %s\n", tb.Title(), strings.Join(tb.Columns(), "|"))
		for i := 0; i < tb.NumRows(); i++ {
			fmt.Fprintf(h, "%s\n", strings.Join(tb.Row(i), "|"))
		}
		for _, n := range tb.Notes() {
			fmt.Fprintf(h, "note %s\n", n)
		}
	}
	for _, f := range out.Findings {
		fmt.Fprintf(h, "finding %s\n", f)
	}
	for _, c := range out.Checks {
		fmt.Fprintf(h, "check %s %v %s\n", c.Name, c.Pass, c.Detail)
	}
}

func failedChecks(out *experiments.Outcome) int {
	n := 0
	for _, c := range out.Checks {
		if !c.Pass {
			n++
		}
	}
	return n
}

// reportChecks prints, per seed, how many reproduction checks failed. A
// failed check is a finding about the reproduction's statistical power at
// quick scale, not a failed operation, so it is reported and not counted.
func reportChecks(runs []suiteRun) {
	perSeed := map[uint64]int{}
	var seeds []uint64
	for _, r := range runs {
		if _, ok := perSeed[r.seed]; !ok {
			seeds = append(seeds, r.seed)
		}
		perSeed[r.seed] += r.failed
	}
	for _, s := range seeds {
		fmt.Fprintf(os.Stderr, "perfbench: suite seed %d: %d reproduction checks failed\n", s, perSeed[s])
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
