// Package reduce implements the history-reduction relation ⇒ of §3
// (Figure 4), the failure-free histories and eventsof function of §3.2
// (eqs. 21–22), the x-able predicate (eq. 23), and history signatures
// (eqs. 24–25).
//
// The relation is implemented twice, as two engines that are
// property-tested against each other:
//
//   - Normalize (greedy.go, sweep.go): a deterministic rewriting strategy
//     that applies the rules of Figure 4 left-to-right until fixpoint — the
//     leftmost legal rewrite first, as if it started again from event zero
//     after each, computed as one indexed sweep per rule whose cost is the
//     windows it rewrites (DESIGN.md §2 item 9). It is what the run
//     verifier uses on long protocol traces.
//   - Search (exhaustive.go): a complete breadth-first exploration of every
//     rule application, memoized on history keys. It is exponential in the
//     worst case and is used on small histories as the ground-truth oracle.
//
// Rule-to-code map (Figure 4):
//
//	rule 17 (transitivity)  — iteration in Normalize / path in Search
//	rule 18 (idempotent)    — stepsRule18; applies to registered idempotent
//	                          actions and to cancellation actions ("commit
//	                          and cancellation actions are idempotent")
//	rule 19 (cancellation)  — stepsRule19
//	rule 20 (commit)        — stepsRule20; like rule 18 for commit actions
//	                          but with the (aᵘ,iv) ∉ h′ overlap constraint
//
// Interpretive decisions (see DESIGN.md §2 for rationale):
//
//   - Round tagging. Protocol events of undoable actions and their derived
//     cancel/commit actions carry the execution round in their input value
//     (§5.4: round numbers scope cancellation). Events of idempotent
//     actions do not, so duplicate executions in different rounds collapse
//     under rule 18.
//   - Failure-free histories of undoable requests quantify over the
//     committing round as well as the output value: the request happened
//     exactly once, in some round r, and was committed in that same round.
//
// A Normalizer carries scratch — the indexed copy of the history it is
// normalizing, and the reduction target while XAbleTo runs — and reuses it
// from one history to the next. It is not for concurrent use; build one
// per goroutine (verify.Check builds one per run).
package reduce

import (
	"fmt"

	"xability/internal/action"
	"xability/internal/event"
)

// EventsOf implements eventsof (eqs. 21–22): the failure-free history of
// executing the request with output value ov. For an undoable action the
// history includes the commit pair; for an idempotent action it is the bare
// start/completion pair. The request's round, if any, is folded into the
// event values exactly as the protocol does.
func EventsOf(reg *action.Registry, req action.Request, ov action.Value) (event.History, error) {
	k, ok := reg.Kind(req.Action)
	if !ok {
		return nil, fmt.Errorf("reduce: action %q not registered", req.Action)
	}
	switch k {
	case action.KindUndoable:
		iv := req.EffectiveInput()
		com := req.Commit()
		return event.History{
			event.S(req.Action, iv),
			event.C(req.Action, ov),
			event.S(com.Action, com.EffectiveInput()),
			event.C(com.Action, action.Nil),
		}, nil
	case action.KindIdempotent, action.KindCancel, action.KindCommit:
		return event.History{
			event.S(req.Action, req.EffectiveInput()),
			event.C(req.Action, ov),
		}, nil
	default:
		return nil, fmt.Errorf("reduce: unknown kind %v for %q", k, req.Action)
	}
}

// TargetSpec describes the set of failure-free histories of one request —
// the paper's FailureFree(a,iv) (§3.2) — as a matchable shape rather than an
// (infinite) enumeration. Output nil quantifies over the output value
// (∃ ov ∈ Value); AnyRound additionally quantifies over the round tag on the
// request's events, which is how the protocol's round-scoped execution of
// undoable actions is accommodated (see the package comment).
type TargetSpec struct {
	Action   action.Name
	Input    action.Value // raw input, without request/round tag
	ID       string       // request ID the events must carry; "" = any
	Output   *action.Value
	Undoable bool
	AnyRound bool
}

// SpecFor builds the TargetSpec of a request against the registry.
func SpecFor(reg *action.Registry, req action.Request) (TargetSpec, error) {
	k, ok := reg.Kind(req.Action)
	if !ok {
		return TargetSpec{}, fmt.Errorf("reduce: action %q not registered", req.Action)
	}
	return TargetSpec{
		Action:   req.Action,
		Input:    req.Input,
		ID:       req.ID,
		Undoable: k == action.KindUndoable,
		AnyRound: k == action.KindUndoable, // protocol may commit in any round
	}, nil
}

// WithOutput pins the output value of the spec.
func (t TargetSpec) WithOutput(ov action.Value) TargetSpec {
	t.Output = &ov
	return t
}

// matchInput reports whether an event input value matches the spec's input,
// honoring round quantification, and returns the tag it carried.
func (t TargetSpec) matchInput(v action.Value) (string, int, bool) {
	base, id, round := action.SplitTag(v)
	if base != t.Input {
		return "", 0, false
	}
	if round != 0 && !t.AnyRound {
		return "", 0, false
	}
	if t.ID != "" && id != t.ID {
		return "", 0, false
	}
	return id, round, true
}

// len reports how many events a matching history segment has.
func (t TargetSpec) len() int {
	if t.Undoable {
		return 4
	}
	return 2
}

// MatchPrefix matches the spec against a prefix of h. On success it returns
// the remaining history and the output value the matched execution
// produced.
func (t TargetSpec) MatchPrefix(h event.History) (rest event.History, ov action.Value, ok bool) {
	n := t.len()
	if len(h) < n {
		return nil, "", false
	}
	s, c := h[0], h[1]
	if s.Type != event.Start || s.Action != t.Action {
		return nil, "", false
	}
	id, round, ok2 := t.matchInput(s.Value)
	if !ok2 {
		return nil, "", false
	}
	if c.Type != event.Complete || c.Action != t.Action {
		return nil, "", false
	}
	if t.Output != nil && c.Value != *t.Output {
		return nil, "", false
	}
	if !t.Undoable {
		return h[2:], c.Value, true
	}
	// Undoable: the commit pair must follow, with the same request/round tag.
	cs, cc := h[2], h[3]
	com := action.Commit(t.Action)
	if cs.Type != event.Start || cs.Action != com {
		return nil, "", false
	}
	csBase, csID, csRound := action.SplitTag(cs.Value)
	if csBase != t.Input || csID != id || csRound != round {
		return nil, "", false
	}
	if cc.Type != event.Complete || cc.Action != com || cc.Value != action.Nil {
		return nil, "", false
	}
	return h[4:], c.Value, true
}

// MatchTarget reports whether h is exactly a failure-free history for the
// request sequence described by specs (the concatenation of eventsof
// segments, one per spec, in order). On success it returns the output
// values of each segment.
func MatchTarget(h event.History, specs []TargetSpec) ([]action.Value, bool) {
	outs := make([]action.Value, 0, len(specs))
	rest := h
	for _, t := range specs {
		var ov action.Value
		var ok bool
		rest, ov, ok = t.MatchPrefix(rest)
		if !ok {
			return nil, false
		}
		outs = append(outs, ov)
	}
	if len(rest) != 0 {
		return nil, false
	}
	return outs, true
}
