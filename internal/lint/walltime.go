package lint

import (
	"go/ast"
	"go/types"
)

// Walltime flags wall-clock reads and sleeps. Virtual-time determinism
// means *all* time flows through the vclock clock; a single time.Now or
// time.Sleep smuggles the host's scheduler into the run. This is the rule
// that would have caught PR 5's wall-races (free-running cleaner loops and
// late events timed against the wall) at review time instead of in a
// flaky sweep. Legitimate real-time boundaries — exper's throughput
// stopwatches, the CLIs' progress printing — carry //xvet:ok annotations;
// nothing is exempted by path.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc:  "no time.Now/Sleep/After/Tick/... on simulation paths; time must flow through the vclock clock",
	Run:  runWalltime,
}

// wallclockFuncs are the package-level time functions that read or wait on
// the wall clock. Pure data constructors (time.Duration arithmetic,
// time.Unix, Parse, Date) are fine — they don't observe the host clock.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

func runWalltime(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // methods on Timer/Ticker values, not clock reads
			}
			if !wallclockFuncs[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock and breaks virtual-time determinism; route time through the vclock clock", fn.Name())
			return true
		})
	}
	return nil
}
