// Command antexperiments regenerates the reproduction experiments E1–E11
// described in DESIGN.md and EXPERIMENTS.md.
//
// Usage:
//
//	antexperiments [-run E1,E3] [-scale quick|standard|full] [-seed N]
//	               [-format ascii|markdown|csv] [-workers N]
//
// With no -run flag every experiment runs. The output contains, for each
// experiment, its tables, its headline findings and its pass/fail checks; the
// process exits non-zero if any check fails so the suite can gate CI.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"antsearch/internal/experiments"
	"antsearch/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "antexperiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("antexperiments", flag.ContinueOnError)
	var (
		runList = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		scale   = fs.String("scale", "standard", "sweep size: quick, standard or full")
		seed    = fs.Uint64("seed", 1, "base random seed")
		format  = fs.String("format", "ascii", "table format: ascii, markdown or csv")
		workers = fs.Int("workers", 0, "total worker goroutines per experiment, shared by cells and trials (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}

	cfg := experiments.Config{Seed: *seed, Workers: *workers}
	switch strings.ToLower(*scale) {
	case "quick":
		cfg.Scale = experiments.Quick
	case "standard", "":
		cfg.Scale = experiments.Standard
	case "full":
		cfg.Scale = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}

	render := func(t *table.Table) string { return t.ASCII() }
	switch strings.ToLower(*format) {
	case "ascii", "":
	case "markdown", "md":
		render = func(t *table.Table) string { return t.Markdown() }
	case "csv":
		render = func(t *table.Table) string { return t.CSV() }
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	selected := experiments.All()
	if *runList != "" {
		var filtered []experiments.Experiment
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			exp, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			filtered = append(filtered, exp)
		}
		selected = filtered
	}

	ctx := context.Background()
	failed := 0
	for _, exp := range selected {
		start := time.Now()
		fmt.Fprintf(out, "==== %s: %s ====\n", exp.ID, exp.Title)
		fmt.Fprintf(out, "claim: %s\n\n", exp.Claim)
		outcome, err := exp.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		for _, t := range outcome.Tables {
			fmt.Fprintln(out, render(t))
		}
		for _, f := range outcome.Findings {
			fmt.Fprintf(out, "finding: %s\n", f)
		}
		for _, c := range outcome.Checks {
			status := "PASS"
			if !c.Pass {
				status = "FAIL"
				failed++
			}
			fmt.Fprintf(out, "check [%s] %s: %s\n", status, c.Name, c.Detail)
		}
		fmt.Fprintf(out, "elapsed: %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return fmt.Errorf("%d check(s) failed", failed)
	}
	return nil
}
