// Command xvet machine-checks the repo's determinism discipline: the
// invariants that make runs virtual-time, seed-deterministic, and
// byte-replayable. It is the compile-time counterpart of the replay
// regressions — a violation is reported where it is written, not three
// PRs later as a flaky sweep.
//
// Usage:
//
//	xvet [-json] [packages]   lint (default ./...); exit 1 on findings
//	xvet -rules               list rules with one-line docs
//	xvet -selfcheck           assert each analyzer fires on every expectation of its fixture
//
// Escapes: annotate the flagged line (or the line above) with
// `//xvet:ok <rule> <reason>` — the reason is mandatory and checked.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xability/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (file/line/col/rule/message)")
	rules := flag.Bool("rules", false, "list rules with one-line docs and exit")
	selfcheck := flag.Bool("selfcheck", false, "assert each analyzer still fires on every expectation of its testdata fixture")
	flag.Parse()

	if *rules {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, modpath, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}

	if *selfcheck {
		os.Exit(runSelfcheck(root))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(root, modpath, patterns)
	if err != nil {
		fatal(err)
	}
	diags, err := lint.Check(pkgs, lint.Analyzers())
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		rel := make([]lint.Diagnostic, len(diags))
		for i, d := range diags {
			d.File = relPath(root, d.File)
			rel[i] = d
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rel); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			d.File = relPath(root, d.File)
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "xvet: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// runSelfcheck runs every analyzer against its own fixture package and
// fails unless each produces one diagnostic per expectation the fixture
// marks (and at least one). A driver or loader regression that silently
// blinds an analyzer turns the CI gate into a rubber stamp; this step
// guards the guard.
func runSelfcheck(root string) int {
	status := 0
	for _, a := range lint.Analyzers() {
		dir := filepath.Join(root, "internal", "lint", "testdata", "src", a.Name)
		pkg, err := lint.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selfcheck %s: %v\n", a.Name, err)
			status = 1
			continue
		}
		diags, err := lint.Check([]*lint.Package{pkg}, []*lint.Analyzer{a})
		if err != nil {
			fmt.Fprintf(os.Stderr, "selfcheck %s: %v\n", a.Name, err)
			status = 1
			continue
		}
		fired := 0
		for _, d := range diags {
			if d.Rule == a.Name {
				fired++
			}
		}
		if fired == 0 {
			fmt.Fprintf(os.Stderr, "selfcheck %s: analyzer produced no diagnostics on its fixture\n", a.Name)
			status = 1
			continue
		}
		// An analyzer with several halves (globalrand: global draws, own
		// generators) must not pass on one of them alone.
		wants := 0
		for _, src := range pkg.Sources {
			wants += strings.Count(string(src), "// want `")
		}
		if fired != wants {
			fmt.Fprintf(os.Stderr, "selfcheck %s: %d diagnostic(s) on a fixture that marks %d\n", a.Name, fired, wants)
			status = 1
			continue
		}
		fmt.Printf("selfcheck %-14s ok (%d diagnostic(s) on fixture)\n", a.Name, fired)
	}
	return status
}

func relPath(root, file string) string {
	if r, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(r) {
		return filepath.ToSlash(r)
	}
	return file
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xvet:", err)
	os.Exit(2)
}
