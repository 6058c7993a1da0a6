package reduce

import (
	"fmt"

	"xability/internal/action"
	"xability/internal/event"
)

// TraceStep records one rewrite in a normalization trace, for human
// consumption (cmd/xcheck --trace).
type TraceStep struct {
	Rule   Rule
	Desc   string
	Before event.History
	After  event.History
}

// Normalizer applies the reduction rules of Figure 4 with a deterministic
// greedy strategy. The zero value is not usable; construct with New. A
// Normalizer carries the scratch of the history it is working on (its
// indexed normal form and the per-request projections), kept from one
// history to the next but holding no reference to a caller's history once
// a call returns: it is not for concurrent use.
type Normalizer struct {
	reg *action.Registry

	// Trace, when non-nil, accumulates the rewrites performed.
	Trace *[]TraceStep

	// target is the reduction target Toward declared, a copy. The duplicate
	// sweep stops absorbing an (action, input) pair at as many executions
	// as the target holds of it (load counts them onto the groups), so that
	// a request sequence that legitimately invokes the same idempotent
	// action on the same input twice is not over-reduced. Pairs default to
	// 1.
	target []TargetSpec

	sweep
	projector
}

// New returns a Normalizer over the given action vocabulary.
func New(reg *action.Registry) *Normalizer {
	return &Normalizer{reg: reg}
}

// Toward declares the reduction target of Normalize: duplicate absorption
// preserves as many executions of each (action, input) pair as specs
// contain. The Normalizer keeps a copy, so a later write to specs does not
// move the target.
func (n *Normalizer) Toward(specs []TargetSpec) *Normalizer {
	n.target = append(n.target[:0], specs...)
	return n
}

// record appends one rewrite to the trace. The history is as the rewrite
// left it; what it was before is the previous step's result, so the two
// share one snapshot.
func (n *Normalizer) record(rule Rule, what string, a action.Name, iv action.Value) {
	if n.Trace == nil {
		return
	}
	after := n.snapshot()
	*n.Trace = append(*n.Trace, TraceStep{
		Rule:   rule,
		Desc:   fmt.Sprintf("%s of (%s, %s)", what, a, action.Display(iv)),
		Before: n.last,
		After:  after,
	})
	n.last = after
}

// Normalize reduces h to a canonical normal form by applying, until global
// fixpoint:
//
//  1. rules 18/20 with a non-empty ?-part — absorb duplicate attempts of
//     idempotent, cancel, and commit actions (pair absorption into the
//     nearest surviving pair, dangler absorption for attempts that never
//     completed);
//  2. rule 19 — remove cancelled attempts and gratuitous cancel pairs,
//     leftmost first;
//  3. rules 18/20 in their Λ form — compact every surviving
//     idempotent/cancel/commit pair to be adjacent at its completion
//     position, pulling interleaved junk in front of the pair.
//
// Step 3 gives the normal form its canonical shape: each reducible pair sits
// contiguously, ordered by completion; events of undoable actions (which no
// rule may reorder) stay where the observer saw them. A history is x-able
// w.r.t. a target exactly when its normal form *is* a failure-free history
// of the target — which MatchTarget then decides structurally.
//
// The strategy is sound by construction (every rewrite is a legal rule
// instance); completeness against the exhaustive engine is established by
// TestGreedyAgreesWithSearch on randomized histories. Each step is one
// sweep over an indexed copy of h (sweep.go) that makes the rewrites a
// restart from event zero after every rewrite would make, in the same
// order; TestNormalizeAgreesWithReference holds it to that.
func (n *Normalizer) Normalize(h event.History) event.History {
	if len(h) == 0 {
		return h.Clone()
	}
	n.normalize(h, n.target)
	defer n.release()
	return n.snapshot()
}

// normalize is Normalize towards specs that leaves the normal form in the
// scratch, where snapshot and matchTarget read it until release.
func (n *Normalizer) normalize(h event.History, specs []TargetSpec) {
	n.load(h, specs)
	// The loop terminates: steps 1–2 strictly remove events; step 3
	// strictly decreases the total pair spread and is itself a fixpoint
	// computation; an outer bound guards against pathological interaction.
	for iter := 0; iter <= n.size()+2; iter++ {
		// Duplicates first: dangling retry starts must be absorbed into a
		// surviving pair before rule 19 consumes the cancel pairs they
		// depend on.
		changed := n.dedup()
		if n.cancel() {
			changed = true
		}
		n.compact()
		if !changed {
			break
		}
	}
}

// release lets go of the caller's history: a Normalizer kept across calls
// (a verify.Checker's, in a sweep worker) must not pin the last one.
func (n *Normalizer) release() { n.src, n.last = nil, nil }
