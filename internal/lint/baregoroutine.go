package lint

import "go/ast"

// Baregoroutine flags raw go statements. A goroutine spawned outside
// vclock.Go/GoAfter is invisible to the attachment ledger: the clock may
// advance while it still has work in flight, which is the
// untracked-goroutine class behind PR 5's wall-races (a free-running
// cleaner loop starving verdict computation). Wall-side workers — sweep
// fan-out in exper and scenario, the vclock implementation itself — are
// annotated escapes, not path exemptions.
var Baregoroutine = &Analyzer{
	Name: "baregoroutine",
	Doc:  "no raw go statements in simulation code; goroutines must attach via vclock Go/GoAfter",
	Run:  runBaregoroutine,
}

func runBaregoroutine(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "bare go statement spawns a goroutine the virtual clock cannot track; use vclock Go/GoAfter, or AfterRunner for a callback that needs no goroutine")
			}
			return true
		})
	}
	return nil
}
