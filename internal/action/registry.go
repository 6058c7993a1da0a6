package action

import (
	"fmt"
	"sort"
)

// Registry records the fault-tolerance classification of a vocabulary of
// actions: which names belong to the paper's Idempotent set and which to the
// Undoable set (§3.1). Derived cancel/commit names are classified
// automatically (they are idempotent by definition) and must not be
// registered directly.
//
// A registry in use is read-only: register every name first, then hand it
// out. Its readers take no lock, so any number of goroutines may classify
// names at once, but Register must not run beside them. Freeze makes that
// final: Register on a frozen registry fails. The zero value is ready to
// use.
type Registry struct {
	// index maps each registered name to its Entry in vocab. It holds no
	// derived names, so a vocabulary of up to eight actions stays a map of
	// one group, which Go searches on its small-map path.
	index  map[Name]int
	vocab  []Entry
	frozen bool
}

// Entry is a name as the registry resolves it: the name's kind, and its
// base action's index in registration order and derived names — built
// once, when the base action was registered.
type Entry struct {
	Kind           Kind
	Index          int
	Cancel, Commit Name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register classifies a user-defined action name. It returns an error for
// invalid names, derived names, re-registration under a different kind, or
// a frozen registry.
func (r *Registry) Register(a Name, k Kind) error {
	if err := Validate(a); err != nil {
		return err
	}
	if k != KindIdempotent && k != KindUndoable {
		return fmt.Errorf("action: cannot register %q as %v; only idempotent and undoable actions are registered directly", a, k)
	}
	if r.frozen {
		return fmt.Errorf("action: cannot register %q: the registry is frozen", a)
	}
	if i, ok := r.index[a]; ok {
		if prev := r.vocab[i].Kind; prev != k {
			return fmt.Errorf("action: %q already registered as %v, cannot re-register as %v", a, prev, k)
		}
		return nil
	}
	if r.index == nil {
		r.index = make(map[Name]int)
	}
	r.index[a] = len(r.vocab)
	r.vocab = append(r.vocab, Entry{Kind: k, Index: len(r.vocab), Cancel: Cancel(a), Commit: Commit(a)})
	return nil
}

// Freeze makes the registry read-only for good and returns it.
func (r *Registry) Freeze() *Registry {
	r.frozen = true
	return r
}

// MustRegister is Register that panics on error; intended for package-level
// vocabulary construction in examples and tests.
func (r *Registry) MustRegister(a Name, k Kind) {
	if err := r.Register(a, k); err != nil {
		panic(err)
	}
}

// RegisterIdempotent registers a as an idempotent action.
func (r *Registry) RegisterIdempotent(a Name) error { return r.Register(a, KindIdempotent) }

// RegisterUndoable registers a as an undoable action; its cancel and commit
// actions become implicitly available.
func (r *Registry) RegisterUndoable(a Name) error { return r.Register(a, KindUndoable) }

// Lookup resolves any name, including derived cancel/commit names; the
// boolean reports whether the (base) name is known to the registry.
func (r *Registry) Lookup(a Name) (Entry, bool) {
	base, derived := Base(a)
	var e Entry
	i, ok := r.index[base]
	if ok {
		e = r.vocab[i]
	}
	if derived != KindIdempotent {
		e.Kind = derived
	}
	return e, ok
}

// Len is the number of registered (base) names; Entry.Index is below it.
func (r *Registry) Len() int { return len(r.vocab) }

// Kind classifies any name, including derived cancel/commit names. The
// boolean reports whether the (base) name is known to the registry.
func (r *Registry) Kind(a Name) (Kind, bool) {
	e, ok := r.Lookup(a)
	return e.Kind, ok
}

// IsIdempotent reports whether a behaves idempotently under retry: true for
// registered idempotent actions and for all cancel/commit actions of
// registered undoable actions ("Cancellation and commit actions are
// idempotent", §3.1).
func (r *Registry) IsIdempotent(a Name) bool {
	k, ok := r.Kind(a)
	return ok && (k == KindIdempotent || k == KindCancel || k == KindCommit)
}

// IsUndoable reports whether a is a registered undoable action.
func (r *Registry) IsUndoable(a Name) bool {
	k, ok := r.Kind(a)
	return ok && k == KindUndoable
}

// Names returns the registered (base) names in sorted order.
func (r *Registry) Names() []Name {
	names := make([]Name, 0, len(r.index))
	for a := range r.index {
		names = append(names, a)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// Clone returns an independent, unfrozen copy of the registry.
func (r *Registry) Clone() *Registry {
	c := &Registry{index: make(map[Name]int, len(r.index)), vocab: append([]Entry(nil), r.vocab...)}
	for a, i := range r.index {
		c.index[a] = i
	}
	return c
}
