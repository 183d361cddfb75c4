// Command antlint runs the repository's static-contract analyzers (see
// internal/lint and DESIGN.md §9) over the given package patterns:
//
//	go run ./cmd/antlint ./...
//
// By default it prints one line per finding in go-vet format and exits
// non-zero when anything is found, so it slots directly into CI. With -json
// it instead emits a machine-readable report (stable, sorted — CI turns it
// into GitHub ::error annotations); with -fix it applies the suggested fixes
// diagnostics carry before reporting what remains.
//
// The suite enforces the engine's determinism contract (detrand, maporder,
// rngpath), the wire-schema contracts (wiretag, codecver), the
// hot-path/locking contracts (hotpath, lockio) and the durability tier's
// error discipline (storeerr). Analyzers propagate facts across package
// boundaries, so a hot function calling an allocating helper two packages
// away is a finding at the call site.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"antsearch/internal/lint"
	"antsearch/internal/lint/load"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON report on stdout")
	fix := flag.Bool("fix", false, "apply suggested fixes, then report what remains")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: antlint [-json] [-fix] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n             "))
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-10s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleDir, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "antlint:", err)
		os.Exit(2)
	}
	loader := load.New(moduleDir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "antlint:", err)
		os.Exit(2)
	}
	findings, err := lint.RunAnalyzers(pkgs, lint.Analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "antlint:", err)
		os.Exit(2)
	}

	if *fix {
		fixed, err := lint.ApplyFixes(findings, os.ReadFile, func(name string, data []byte) error {
			return os.WriteFile(name, data, 0o644)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "antlint: applying fixes:", err)
			os.Exit(2)
		}
		if fixed > 0 {
			fmt.Fprintf(os.Stderr, "antlint: applied %d fix(es); re-analyzing\n", fixed)
			// Positions in the remaining findings are stale after rewriting;
			// re-run the suite against the fixed tree.
			loader = load.New(moduleDir)
			pkgs, err = loader.Load(patterns...)
			if err != nil {
				fmt.Fprintln(os.Stderr, "antlint:", err)
				os.Exit(2)
			}
			findings, err = lint.RunAnalyzers(pkgs, lint.Analyzers)
			if err != nil {
				fmt.Fprintln(os.Stderr, "antlint:", err)
				os.Exit(2)
			}
		}
	}

	// Findings carry loader-view (absolute) paths; report them relative to
	// the module root so output is machine-stable across checkouts.
	for i := range findings {
		findings[i].File = relToModule(moduleDir, findings[i].File)
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "antlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "antlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

// relToModule renders path relative to the module root when it sits inside
// it, slash-separated; anything else is returned unchanged.
func relToModule(moduleDir, path string) string {
	rel, err := filepath.Rel(moduleDir, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}

// moduleRoot locates the enclosing module's directory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("locating module root: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("antlint must run inside a Go module")
	}
	return filepath.Dir(gomod), nil
}
