package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Fixture tests: each analyzer runs alone over testdata/src/<name>, and the
// diagnostics must line up one-for-one with the backtick-quoted `// want`
// expectations embedded in the fixture source. Every fixture carries at
// least one true positive and one //xvet:ok-annotated escape, so these
// tests pin both halves of the contract: the rule fires, and a complete
// directive silences it.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			diags := checkFixture(t, a.Name, []*Analyzer{a})
			fired := false
			for _, d := range diags {
				if d.Rule == a.Name {
					fired = true
				}
			}
			if !fired {
				t.Errorf("analyzer %s produced no %s diagnostics on its own fixture", a.Name, a.Name)
			}
		})
	}
}

// The one-generator half of globalrand is scoped by import path: it holds
// the library to internal/xrand and leaves the library's callers — and
// xrand itself, which wraps its own source — alone.
func TestGlobalrandScope(t *testing.T) {
	for path, want := range map[string]bool{
		"xability":                  true,
		"xability/internal/simnet":  true,
		"xability/internal/xrand":   false,
		"xability/cmd/xsim":         false,
		"xability/examples/banking": false,
		"xability/bench":            false,
		"fixture/globalrand":        true,
	} {
		if got := oneGenerator(path); got != want {
			t.Errorf("oneGenerator(%q) = %v, want %v", path, got, want)
		}
	}
}

// The directive fixture runs under the full suite: its chained standalone
// escapes span two rules, and directive misuse (missing reason, unknown
// rule, unused) must be reported without suppressing the underlying
// diagnostics.
func TestDirectiveFixture(t *testing.T) {
	diags := checkFixture(t, "directive", Analyzers())
	misuse := 0
	for _, d := range diags {
		if d.Rule == DirectiveRule {
			misuse++
		}
	}
	// Missing reason, unknown rule, missing everything, unused.
	if misuse != 4 {
		t.Errorf("directive fixture produced %d directive diagnostics, want 4", misuse)
	}
}

// checkFixture loads testdata/src/<name>, runs the given analyzers through
// Check (directive filtering included), and fails the test on any
// mismatch between diagnostics and want-expectations. It returns the
// diagnostics for extra assertions.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	diags, err := Check([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	wants := parseWants(pkg)
	for _, d := range diags {
		if !consumeWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("no diagnostic at %s matched want %q", key, w.pattern)
			}
		}
	}
	return diags
}

// want is one expectation: a regex that some diagnostic on its line must
// match.
type want struct {
	pattern string
	re      *regexp.Regexp
	used    bool
}

// wantRe extracts backtick-quoted regexes from the text after a `// want`
// marker. Backticks keep regex metacharacters (\., ") out of Go string
// escaping entirely.
var wantRe = regexp.MustCompile("`([^`]*)`")

// parseWants scans the fixture sources for `// want` expectations, keyed by
// file:line.
func parseWants(pkg *Package) map[string][]*want {
	wants := make(map[string][]*want)
	for file, src := range pkg.Sources {
		for i, line := range strings.Split(string(src), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			key := fmt.Sprintf("%s:%d", file, i+1)
			for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
				wants[key] = append(wants[key], &want{pattern: m[1], re: regexp.MustCompile(m[1])})
			}
		}
	}
	return wants
}

// consumeWant marks the first unused want on the diagnostic's line whose
// regex matches the message, reporting whether one existed.
func consumeWant(wants map[string][]*want, d Diagnostic) bool {
	for _, w := range wants[fmt.Sprintf("%s:%d", d.File, d.Line)] {
		if !w.used && w.re.MatchString(d.Message) {
			w.used = true
			return true
		}
	}
	return false
}

// The live tree must lint clean: every historical violation is either fixed
// or carries a reasoned //xvet:ok annotation. This is the same gate CI
// applies via `go run ./cmd/xvet ./...`, pinned here so plain `go test`
// catches a new violation without the separate tool run.
func TestTreeLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := Check(loadTree(t), Analyzers())
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// loadTree loads and type-checks every package of the live module
// (non-test files), once for all the tests that read it.
func loadTree(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := treeOnce()
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	return pkgs
}

var treeOnce = sync.OnceValues(func() ([]*Package, error) {
	root, modpath, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return Load(root, modpath, []string{"./..."})
})
