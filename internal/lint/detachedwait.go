package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Detachedwait flags blocking waits the virtual clock cannot see:
// sync.WaitGroup.Wait, sync.Cond.Wait, and bare channel receives. A
// clock-attached goroutine parked in one of these is still counted
// runnable (or, if it gives its attachment up around the wait, re-attaches
// at an instant the schedule doesn't order), so the clock either deadlocks or pumps
// background deadlines and burns nondeterministic virtual time — PR 4's
// router bug, where a detached WaitGroup.Wait let heartbeat deadlines
// fire during the join, as a lint rule. The sanctioned primitive is a
// vclock Cond (or vclock.Sleep); the clock's own implementation of those
// primitives is the annotated escape.
var Detachedwait = &Analyzer{
	Name: "detachedwait",
	Doc:  "no sync.WaitGroup.Wait/sync.Cond.Wait/bare channel receive on simulation paths; block on a vclock Cond",
	Run:  runDetachedwait,
}

func runDetachedwait(pass *Pass) error {
	for _, f := range pass.Files {
		// Receives serving as a select communication op are the select's
		// business, not a bare blocking receive; skip them.
		selectComm := make(map[*ast.UnaryExpr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			for _, cl := range sel.Body.List {
				comm := cl.(*ast.CommClause).Comm
				switch s := comm.(type) {
				case *ast.ExprStmt:
					if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						selectComm[u] = true
					}
				case *ast.AssignStmt:
					if len(s.Rhs) == 1 {
						if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
							selectComm[u] = true
						}
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !selectComm[n] {
					pass.Reportf(n.Pos(), "bare channel receive blocks outside the virtual clock's view; wait on a vclock Cond")
				}
			case *ast.CallExpr:
				if recv, ok := syncWait(pass, n); ok {
					pass.Reportf(n.Pos(), "sync.%s.Wait blocks outside the virtual clock's view; join on a vclock Cond", recv)
				}
			}
			return true
		})
	}
	return nil
}

// syncWait reports whether call is a Wait method call on sync.WaitGroup or
// sync.Cond, returning the receiver type name.
func syncWait(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s := pass.Info.Selections[sel]
	if s == nil || s.Obj().Name() != "Wait" {
		return "", false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	if name := obj.Name(); name == "WaitGroup" || name == "Cond" {
		return name, true
	}
	return "", false
}
