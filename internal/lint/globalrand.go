package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Globalrand keeps randomness on the repository's one seeded stream type.
// It flags two things.
//
// Package-level math/rand functions, everywhere: the global source is
// process-wide shared state, so two goroutines drawing from it race for
// position in one stream and equal seeds stop implying equal draws the
// moment scheduling varies. PR 5's byte-determinism work moved every draw
// onto per-owner seeded *rand.Rand streams for exactly this reason.
// Methods on an explicit *rand.Rand or *rand.Zipf stay legal, as do the
// New and NewZipf constructors that wrap a stream.
//
// math/rand's own generators (v1 NewSource, v2 NewPCG and NewChaCha8), in
// the library — the root package and internal/ — outside internal/xrand:
// every stream a simulated run draws from is an xrand.New stream, so a run
// pays one store to seed a stream instead of NewSource's 607-word warm-up,
// and one generator change re-pins every recorded number once. cmd/,
// examples/ and the bench module are callers of the library, not part of
// a run's schedule, and are out of this half's scope.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc:  "no package-level math/rand functions; in the library, no math/rand generator but internal/xrand's",
	Run:  runGlobalrand,
}

// streamConstructors wrap an explicit source or stream.
var streamConstructors = map[string]bool{
	"New":     true,
	"NewZipf": true,
}

// sourceConstructors build one of math/rand's own generators.
var sourceConstructors = map[string]bool{
	"NewSource":  true, // v1
	"NewPCG":     true, // v2
	"NewChaCha8": true, // v2
}

// oneGenerator reports whether the package at import path is held to
// internal/xrand as its only generator. Analyzer fixtures load as
// fixture/<name>.
func oneGenerator(path string) bool {
	if path == "xability/internal/xrand" {
		return false
	}
	return path == "xability" || strings.HasPrefix(path, "xability/internal/") || strings.HasPrefix(path, "fixture/")
}

func runGlobalrand(pass *Pass) error {
	library := oneGenerator(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // *rand.Rand / *rand.Zipf methods: seeded streams
			}
			switch {
			case streamConstructors[fn.Name()]:
			case sourceConstructors[fn.Name()]:
				if library {
					pass.Reportf(sel.Pos(), "rand.%s builds one of math/rand's own generators; the library's streams come from xrand.New", fn.Name())
				}
			default:
				pass.Reportf(sel.Pos(), "rand.%s draws from the shared global source; draw from a seeded *rand.Rand stream instead", fn.Name())
			}
			return true
		})
	}
	return nil
}
