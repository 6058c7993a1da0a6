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
// normal form, the reduction target while XAbleTo runs, and the per-request
// projections), kept from one history to the next: it is not for
// concurrent use.
type Normalizer struct {
	reg *action.Registry

	// Trace, when non-nil, accumulates the rewrites performed.
	Trace *[]TraceStep

	// expected maps an (action, input) pair to the number of executions of
	// it the reduction target contains. The duplicate sweep stops absorbing
	// at this count, so that a request sequence that legitimately invokes
	// the same idempotent action on the same input twice is not
	// over-reduced. Pairs default to 1.
	expected map[targetKey]int
	// toward is XAbleTo's own target, refilled per call so that checking a
	// history allocates no map.
	toward map[targetKey]int
	// norm is the normal form xableTo matches against the target.
	norm event.History

	sweep
	projector
}

// targetKey is an (action, input) pair of the reduction target.
type targetKey struct {
	action action.Name
	input  action.Value
}

// New returns a Normalizer over the given action vocabulary.
func New(reg *action.Registry) *Normalizer {
	return &Normalizer{reg: reg}
}

// Toward declares the reduction target: duplicate absorption preserves as
// many executions of each (action, input) pair as specs contain.
func (n *Normalizer) Toward(specs []TargetSpec) *Normalizer {
	n.expected = countTargets(nil, specs)
	return n
}

// countTargets fills m (emptied first; allocated when it is nil and there
// is something to count) with the number of executions of each (action,
// input) pair in specs.
func countTargets(m map[targetKey]int, specs []TargetSpec) map[targetKey]int {
	clear(m)
	for _, t := range specs {
		if t.Undoable {
			continue // tagged per request/round, never collides
		}
		if m == nil {
			m = make(map[targetKey]int)
		}
		m[targetKey{t.Action, t.Input}]++
	}
	return m
}

func (n *Normalizer) expectedCount(a action.Name, iv action.Value) int {
	if c, ok := n.expected[targetKey{a, iv}]; ok {
		return c
	}
	return 1
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
	n.normalize(h)
	return n.snapshot()
}

// normalize is Normalize that leaves the normal form in the scratch, where
// snapshot and appendTo read it.
func (n *Normalizer) normalize(h event.History) {
	if len(h) == 0 {
		n.p, n.r, n.end = 0, 0, 0
		return
	}
	n.load(h)
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
	n.last = nil
}
