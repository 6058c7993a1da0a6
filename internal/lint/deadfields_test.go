package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestNoDeadConfigFields keeps knobs from growing back: every exported
// field of an exported *Config, *Options or *Spec struct, and of
// scenario.Scenario, must be given a value by at least one non-test file
// of the module. Two kinds of assignment are not values. Copying the field
// of the same name from another struct (`F: x.F`, `y.F = x.F`) is a
// pass-through: it counts only if x's F is itself given one somewhere. And
// a type's own withDefaults filling in its zero fields is the default, not
// a caller. A knob that is only ever passed along or defaulted has no
// caller, and a field nobody sets is a constant: name it as one.
func TestNoDeadConfigFields(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs := loadTree(t)
	inModule := make(map[*types.Package]bool)
	knobs := make(map[*types.Var]string) // field → "pkg.Type.Field"
	for _, pkg := range pkgs {
		inModule[pkg.Types] = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !isKnobStruct(pkg.Types.Name(), name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					knobs[f] = pkg.Types.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	if len(knobs) == 0 {
		t.Fatal("found no config structs: the scan is broken")
	}

	live := make(map[*types.Var]bool)         // fields given a value
	from := make(map[*types.Var][]*types.Var) // field → same-named fields copied into it
	for _, pkg := range pkgs {
		field := func(e ast.Expr) *types.Var {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var)
			}
			return nil
		}
		var defaults *types.Struct // the receiver's, inside a withDefaults method
		give := func(dst *types.Var, value ast.Expr) {
			if hasField(defaults, dst) {
				return
			}
			if src := field(value); src != nil && src.Name() == dst.Name() && inModule[src.Pkg()] {
				from[dst] = append(from[dst], src)
				return
			}
			live[dst] = true
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					defaults = nil
					if n.Recv != nil && n.Name.Name == "withDefaults" {
						defaults = structOf(pkg.Info.TypeOf(n.Recv.List[0].Type))
					}
				case *ast.CompositeLit:
					st := structOf(pkg.Info.TypeOf(n))
					if st == nil {
						return true
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); !ok {
							give(st.Field(i), el) // positional literal
						} else if v, ok := pkg.Info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							give(v, kv.Value)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						switch dst := field(lhs); {
						case dst == nil:
						case len(n.Rhs) == len(n.Lhs):
							give(dst, n.Rhs[i])
						case hasField(defaults, dst):
						default: // a, b.F = f()
							live[dst] = true
						}
					}
				case *ast.UnaryExpr: // &x.F handed to something that fills it in
					if dst := field(n.X); dst != nil && n.Op == token.AND {
						live[dst] = true
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for dst, srcs := range from {
			for _, src := range srcs {
				if live[src] && !live[dst] {
					live[dst], changed = true, true
				}
			}
		}
	}

	dead := make(map[string]bool)
	for f, name := range knobs {
		if !live[f] {
			dead[name] = true
		}
	}
	var msgs []string
	for name := range dead {
		if _, ok := unsetOutsideTests[name]; !ok {
			msgs = append(msgs, name+" is set by no non-test file: make it a constant, or delete it")
		}
	}
	for name := range unsetOutsideTests {
		if !dead[name] {
			msgs = append(msgs, name+" is listed in unsetOutsideTests but a non-test file sets it now (or it is gone): drop the entry")
		}
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		t.Error(m)
	}
}

// unsetOutsideTests is the debt TestNoDeadConfigFields does not collect:
// knobs no scenario, CLI, example or benchmark turns, each with what does.
// The list may only shrink — an entry that stops being true fails the test.
var unsetOutsideTests = map[string]string{
	"shrink.Options.Failing": "the failure predicate: shrink's tests substitute one, every caller keeps the baseline run's failure class",
}

func isKnobStruct(pkg, name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec") ||
		pkg == "scenario" && name == "Scenario"
}

// hasField reports whether f is one of st's own fields.
func hasField(st *types.Struct, f *types.Var) bool {
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if st.Field(i) == f {
			return true
		}
	}
	return false
}

// structOf returns the struct a composite literal builds (T{…}, or *T for
// an elided &T{…} element), nil for slices, maps and arrays.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
