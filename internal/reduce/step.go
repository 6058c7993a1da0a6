package reduce

import (
	"fmt"
	"slices"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/pattern"
)

// Rule identifies which inference rule of Figure 4 a reduction step used.
type Rule int

const (
	// Rule18 is the idempotent-absorption rule: a successfully executed
	// idempotent action absorbs the events of a previous attempt.
	Rule18 Rule = 18
	// Rule19 is the cancellation rule: a successfully cancelled undoable
	// action disappears from the history together with its cancel pair.
	Rule19 Rule = 19
	// Rule20 is the commit-idempotence rule: duplicate commit executions
	// collapse, provided the committed action does not overlap the commit.
	Rule20 Rule = 20
)

// String renders the rule in paper terms.
func (r Rule) String() string {
	switch r {
	case Rule18:
		return "rule 18 (idempotent)"
	case Rule19:
		return "rule 19 (cancellation)"
	case Rule20:
		return "rule 20 (commit)"
	default:
		return fmt.Sprintf("rule %d", int(r))
	}
}

// Step is one application of a reduction rule: h ⇒ Result.
type Step struct {
	Rule   Rule
	Desc   string
	Result event.History
}

// rule18Applies reports whether rule 18's action-class test holds: the rule
// covers registered idempotent actions and cancellation actions. Commit
// actions, although idempotent, are handled exclusively by rule 20, whose
// extra (aᵘ,iv) ∉ h′ constraint would otherwise be bypassed.
func rule18Applies(reg *action.Registry, a action.Name) bool {
	k, ok := reg.Kind(a)
	return ok && (k == action.KindIdempotent || k == action.KindCancel)
}

// replayApplies reports whether the §5.2 idempotence lifting extends rule 18
// to an execution of an undoable action: the action is registered undoable
// and the input carries a request/round tag. A tagged invocation runs inside
// the environment's transaction for that tag, which applies the effect at
// most once — re-invoking a completed transaction (a recovered replica
// resuming its round) replays the recorded result without a second effect.
// Two executions with the same tagged input are therefore one effect
// observed twice, exactly the attempt/success shape of rule 18.
//
// The lifting is deliberately narrower than rule 18 proper:
//
//   - untagged inputs (baseline executors run actions raw, outside any
//     transaction) get no at-most-once guarantee and stay irreducible;
//   - only the absorption forms anchored at a duplicate of the same tag are
//     admitted — never the Λ/compaction form, so events of undoable actions
//     are still never reordered relative to other actions' events;
//   - a completion stamped with an attribution annotation (the environment
//     stamps every completion with the tagged input it resolved) only binds
//     when the annotation matches the tag, so a duplicate of round r cannot
//     absorb by stealing round r′'s completion and stranding its start.
func replayApplies(reg *action.Registry, a action.Name, iv action.Value) bool {
	if k, ok := reg.Kind(a); !ok || k != action.KindUndoable {
		return false
	}
	_, id, _ := action.SplitTag(iv)
	return id != ""
}

// replayBinds reports whether a completion event may serve as an execution
// completion of the tagged input iv under the replay lifting: unannotated
// completions (synthetic histories) bind freely, annotated ones only to
// their own tag.
func replayBinds(c event.Event, iv action.Value) bool {
	return c.Annotation == "" || c.Annotation == string(iv)
}

// Steps enumerates every single-step reduction of h under rules 18–20,
// deduplicated by the formal content of the result, rules 18 and 20 first,
// then rule 19. It is Figure 4 said through pattern's ⊨: each step is a
// match of a window h[ws..l], ending at a completion, against its rule's
// composite pattern, kept when the rule's side conditions hold of the
// match's junk. The enumeration is deterministic. Search runs on it, and the
// greedy engine's rewrites are tested to be among its steps.
func Steps(reg *action.Registry, h event.History) []Step {
	e := enumeration{reg: reg, h: h, seen: make(map[string]bool)}
	for l, c := range h {
		if c.Type == event.Complete {
			e.absorb(l)
		}
	}
	for l, c := range h {
		if c.Type == event.Complete && c.Value == action.Nil {
			e.cancel(l)
		}
	}
	return e.out
}

// enumeration is one Steps call: the history and the steps found so far.
type enumeration struct {
	reg  *action.Registry
	h    event.History
	seen map[string]bool
	out  []Step
	gone [4]int        // the events a match consumes
	next event.History // the candidate result, built in place
}

// absorb adds the steps of rule 18 (idempotent actions and cancels) and
// rule 20 (commits) whose success completes at l. The two rules share
// their shape:
//
//	h ⊨ (?[a,iv,ov] ‖h′ [a,iv,ov])
//	h1 • h • h2 ⇒ h1 • h′ • S(a,iv) C(a,ov) • h2
//
// Rule 20 adds (aᵘ,iv) ∉ h′: the commit must not overlap the action it
// commits. Executions of undoable actions with round-tagged inputs take
// part in rule 18 through the §5.2 replay lifting (replayApplies), which
// admits a match only if its ?-part is not Λ and both completions bind to
// the tag (replayBinds).
func (e *enumeration) absorb(l int) {
	h, c := e.h, e.h[l]
	a, ov := c.Action, c.Value
	base, kind := action.Base(a)
	rule, replay := Rule18, false
	switch {
	case rule18Applies(e.reg, a):
	case kind == action.KindCommit && e.reg.IsUndoable(base):
		rule = Rule20
	case e.reg.IsUndoable(a):
		replay = true
	default:
		return
	}
	for k := 0; k < l; k++ {
		if h[k].Type != event.Start || h[k].Action != a {
			continue
		}
		iv := h[k].Value
		if replay && (!replayApplies(e.reg, a, iv) || !replayBinds(c, iv)) {
			continue
		}
		e.match(k, l, k, pattern.Maybe(a, iv, ov), pattern.Exact(a, iv, ov), func(ws int, m pattern.Match, gone removeSet) {
			switch {
			case replay && (m.S1 < 0 || m.C1 >= 0 && !replayBinds(h[m.C1], iv)):
			case rule == Rule20 && e.junkHas(ws, l, gone, base, iv):
			default:
				e.add(rule, ws, l, m, gone, event.S(a, iv), c)
			}
		})
	}
}

// cancel adds the steps of rule 19 whose cancel completes at l:
//
//	h ⊨ (?[aᵘ,iv,ov] ‖h′ [a⁻¹,iv,nil])   (aᵘ,iv) ∉ h1   (aᶜ,iv) ∉ h′
//	h1 • h • h2 ⇒ h1 • h′ • h2
//
// with ov free. The attempt's events, if any, and the cancel pair vanish;
// the junk h′ stays. The first side condition makes the attempt the
// earliest (aᵘ,iv) in the history, so no window starts after it; the
// second keeps a concurrent commit from being silently discarded.
func (e *enumeration) cancel(l int) {
	h, cancel := e.h, e.h[l].Action
	au, kind := action.Base(cancel)
	if kind != action.KindCancel || !e.reg.IsUndoable(au) {
		return
	}
	for k := 0; k < l; k++ {
		if h[k].Type != event.Start || h[k].Action != cancel {
			continue
		}
		iv := h[k].Value
		last := k
		for x := 0; x < k; x++ {
			if h[x].Equal(event.S(au, iv)) {
				last = x
				break
			}
		}
		e.match(k, l, last, pattern.MaybeAny(au, iv), pattern.Exact(cancel, iv, action.Nil), func(ws int, m pattern.Match, gone removeSet) {
			if !e.junkHas(ws, l, gone, action.Commit(au), iv) {
				e.add(Rule19, ws, l, m, gone)
			}
		})
	}
}

// match calls fn with every match of a window h[ws..l], ws ≤ last, against
// sp1 ‖h′ sp2 whose second part starts at k: window starts ascending, each
// window's matches in pattern.Each's order. fn gets the match as positions
// in h and the events it consumes.
func (e *enumeration) match(k, l, last int, sp1, sp2 pattern.Simple, fn func(ws int, m pattern.Match, gone removeSet)) {
	for ws := 0; ws <= last; ws++ {
		pattern.Each(e.h[ws:l+1], sp1, sp2, func(w pattern.Match) bool {
			if w.S2 != k-ws {
				return true
			}
			m, gone := pattern.Match{S1: -1, C1: -1, S2: k, C2: l}, append(e.gone[:0], k, l)
			if w.S1 >= 0 {
				m.S1 = w.S1 + ws
				gone = append(gone, m.S1)
			}
			if w.C1 >= 0 {
				m.C1 = w.C1 + ws
				gone = append(gone, m.C1)
			}
			fn(ws, m, rm(gone...))
			return true
		})
	}
}

// junkHas reports whether the junk of a match — the window h[ws..l] less
// the events the match consumes — holds the start S(a,iv).
func (e *enumeration) junkHas(ws, l int, gone removeSet, a action.Name, iv action.Value) bool {
	for x := ws; x <= l; x++ {
		if !gone.has(x) && e.h[x].Equal(event.S(a, iv)) {
			return true
		}
	}
	return false
}

// add keeps the step a match of the window h[ws..l] makes — the window
// less the events gone, then pair — unless an earlier step reached the same
// history. The candidate is built in scratch space; only a new result is
// copied out and described.
func (e *enumeration) add(rule Rule, ws, l int, m pattern.Match, gone removeSet, pair ...event.Event) {
	e.next = splice(e.next[:0], e.h, ws, l, gone, pair...)
	k := e.next.Key()
	if e.seen[k] {
		return
	}
	e.seen[k] = true
	desc := fmt.Sprintf("%v: window %d..%d, h1 at %d,%d, h2 at %d,%d", rule, ws, l, m.S1, m.C1, m.S2, m.C2)
	e.out = append(e.out, Step{Rule: rule, Desc: desc, Result: e.next.Clone()})
}

// removeSet is a small ascending set of history indices slated for removal
// by one rewrite. Every rule instance removes at most four events, so a
// sorted slice replaces the map the rewriting loops would otherwise
// allocate per candidate — the checker's hottest allocation site.
type removeSet []int

// rm builds a removeSet from at most a handful of indices (sorted here; the
// callers' index variables carry no order guarantee).
func rm(idx ...int) removeSet {
	for i := 1; i < len(idx); i++ { // insertion sort: len ≤ 4
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return removeSet(idx)
}

// has reports membership.
func (r removeSet) has(i int) bool {
	for _, x := range r {
		if x >= i {
			return x == i
		}
	}
	return false
}

// splice appends to dst the result of a rewrite: h with the window
// h[ws:we+1] replaced by its events less those in remove — the junk, in
// place — followed by pair. An absorption (rules 18 and 20) passes the
// surviving execution S(a,iv) C(a,ov) as pair, a cancellation (rule 19)
// nothing. The re-emitted completion keeps the surviving completion's
// attribution annotation: the replay lifting binds completions by tag, and
// stripping the stamp mid-normalization would let a later rewrite of a
// sibling tag bind the survivor through the unannotated fallback.
func splice(dst, h event.History, ws, we int, remove removeSet, pair ...event.Event) event.History {
	dst = slices.Grow(dst, len(h)-len(remove)+len(pair))
	dst = append(dst, h[:ws]...)
	ri := 0
	for i := ws; i <= we; i++ {
		if ri < len(remove) && remove[ri] == i {
			ri++
			continue
		}
		dst = append(dst, h[i])
	}
	dst = append(dst, pair...)
	return append(dst, h[we+1:]...)
}
