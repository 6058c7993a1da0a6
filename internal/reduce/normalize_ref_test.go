package reduce

import (
	"fmt"

	"xability/internal/action"
	"xability/internal/event"
)

// refNormalizer is the greedy strategy as it is defined and as it was
// implemented before the sweeps: apply the leftmost legal rewrite, copy the
// history, start again from event zero. Every question is answered by
// scanning, so it is cubic in practice — and obviously the strategy, which
// is why the sweeps are tested against it (TestNormalizeAgreesWithReference,
// FuzzNormalizeAgrees) rather than the other way round.
type refNormalizer struct {
	*Normalizer
	trace *[]TraceStep
}

func (n refNormalizer) record(rule Rule, desc string, before, after event.History) {
	if n.trace != nil {
		*n.trace = append(*n.trace, TraceStep{Rule: rule, Desc: desc, Before: before, After: after})
	}
}

// normalizeRef is Normalize by the reference strategy, towards the same
// target; the rewrites go to trace when it is non-nil.
func (n *Normalizer) normalizeRef(h event.History, trace *[]TraceStep) event.History {
	return refNormalizer{n, trace}.normalize(h)
}

func (n refNormalizer) normalize(h event.History) event.History {
	h = h.Clone()
	// The loop terminates: steps 1–2 strictly remove events; step 3
	// strictly decreases the total pair spread and is itself a fixpoint
	// computation; an outer bound guards against pathological interaction.
	for iter := 0; iter <= len(h)+2; iter++ {
		changed := false
		// Duplicates first: dangling retry starts must be absorbed into a
		// surviving pair before rule 19 consumes the cancel pairs they
		// depend on.
		for {
			h2, ok := n.dedupOnce(h)
			if !ok {
				break
			}
			h, changed = h2, true
		}
		for {
			h2, ok := n.cancelOnce(h)
			if !ok {
				break
			}
			h, changed = h2, true
		}
		h = n.compact(h)
		if !changed {
			break
		}
	}
	return h
}

// cancelOnce applies rule 19 once, choosing the leftmost cancelled attempt;
// failing that, the leftmost gratuitous cancel pair. Reports whether a
// rewrite happened.
func (n refNormalizer) cancelOnce(h event.History) (event.History, bool) {
	// Pass 1: attempts with a matching cancel pair.
	for i, e := range h {
		if e.Type != event.Start || !n.reg.IsUndoable(e.Action) {
			continue
		}
		au, iv := e.Action, e.Value
		if h[:i].Contains(au, iv) {
			continue // rule 19 requires (aᵘ,iv) ∉ h1: only the first attempt
		}
		cancelName, commitName := action.Cancel(au), action.Commit(au)
		// Find the first cancel pair after the attempt.
		m := -1
		for x := i + 1; x < len(h); x++ {
			if h[x].Equal(event.S(cancelName, iv)) {
				m = x
				break
			}
		}
		if m < 0 {
			continue
		}
		l := -1
		for x := m + 1; x < len(h); x++ {
			if h[x].Equal(event.C(cancelName, action.Nil)) {
				l = x
				break
			}
		}
		if l < 0 {
			continue
		}
		remove := rm(i, m, l)
		// Absorb the attempt's completion, if it completed (free ov).
		for j := i + 1; j < l; j++ {
			if h[j].Type == event.Complete && h[j].Action == au {
				remove = rm(i, m, l, j)
				break
			}
		}
		// (aᶜ,iv) ∉ h′: the junk must not contain the commit's start.
		clean := true
		for x := i; x <= l; x++ {
			if !remove.has(x) && h[x].Type == event.Start && h[x].Action == commitName && h[x].Value == iv {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		out := splice(h, i, l, remove)
		n.record(Rule19, fmt.Sprintf("cancel attempt of (%s, %s)", au, action.Display(iv)), h, out)
		return out, true
	}
	// Pass 2: gratuitous cancel pairs (no prior attempt anywhere).
	for m, e := range h {
		if e.Type != event.Start {
			continue
		}
		au, kind := action.Base(e.Action)
		if kind != action.KindCancel || !n.reg.IsUndoable(au) {
			continue
		}
		iv := e.Value
		if h[:m].Contains(au, iv) {
			continue
		}
		// The window may not contain an attempt either: with a minimal
		// window [m..l] an attempt between the pair would be junk, which
		// rule 19 permits — but removing the only cancel of a live attempt
		// is a reduction dead end, so the greedy strategy declines.
		l := -1
		cancelName := e.Action
		for x := m + 1; x < len(h); x++ {
			if h[x].Equal(event.C(cancelName, action.Nil)) {
				l = x
				break
			}
			if h[x].Type == event.Start && h[x].Action == au && h[x].Value == iv {
				break
			}
		}
		if l < 0 {
			continue
		}
		commitName := action.Commit(au)
		remove := rm(m, l)
		clean := true
		for x := m; x <= l; x++ {
			if !remove.has(x) && h[x].Type == event.Start && h[x].Action == commitName && h[x].Value == iv {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		out := splice(h, m, l, remove)
		n.record(Rule19, fmt.Sprintf("remove gratuitous cancel of (%s, %s)", au, action.Display(iv)), h, out)
		return out, true
	}
	return h, false
}

// dedupOnce applies rule 18 (idempotent/cancel actions) or rule 20 (commit
// actions) once with a non-empty ?-part, absorbing one duplicate execution
// of the leftmost over-represented (action, input) group. Two absorption
// shapes, tried in order:
//
//   - pair absorption: the attempt completed; absorb its start and a
//     completion with the success pair's output into the *nearest* later
//     pair. Using the nearest pair (not the last completion) keeps the
//     remaining pairs intact — pairing with the last completion would
//     orphan the completions in between, a reduction dead end.
//   - dangler absorption: the attempt never completed (more starts than
//     completions in the group); absorb the start alone into the next
//     available pair. Only legal when starts exceed completions, otherwise
//     it manufactures an orphan completion.
//
// Cancel-action groups only ever use dangler absorption: their complete
// pairs are left for rule 19 to consume (one pair per cancelled attempt);
// surplus pairs fall to the gratuitous-cancel pass afterwards.
//
// Round-tagged executions of undoable actions join rule 18 through the §5.2
// idempotence lifting (replayApplies): a recovered replica that resumes its
// round re-invokes the same tagged transaction, so its duplicate execution
// pair absorbs like any idempotent retry. Their completions bind by
// attribution annotation (replayBinds), never across tags.
func (n refNormalizer) dedupOnce(h event.History) (event.History, bool) {
	for i, e := range h {
		if e.Type != event.Start {
			continue
		}
		a, iv := e.Action, e.Value
		base, kind := action.Base(a)
		isCommit := kind == action.KindCommit && n.reg.IsUndoable(base)
		isReplay := !isCommit && !rule18Applies(n.reg, a) && replayApplies(n.reg, a, iv)
		if !rule18Applies(n.reg, a) && !isCommit && !isReplay {
			continue
		}
		if i > 0 && h[:i].Contains(a, iv) {
			continue // only the group's first start anchors absorption
		}
		starts := h.Starts(a, iv)
		if starts <= n.expectedCount(a, iv) {
			continue
		}
		// Completions of the group. Tagged undoable executions (the §5.2
		// replay lifting) only count completions attributable to their own
		// tag, so a sibling round's completion neither inflates the dangler
		// guard nor gets stolen as an absorption target.
		completions := 0
		for _, x := range h {
			if x.Type == event.Complete && x.Action == a && (!isReplay || replayBinds(x, iv)) {
				completions++
			}
		}

		rule := Rule18
		if isCommit {
			rule = Rule20
		}
		commitClean := func(ws, we int, remove removeSet) bool {
			if !isCommit {
				return true
			}
			for x := ws; x <= we; x++ {
				if !remove.has(x) && h[x].Type == event.Start && h[x].Action == base && h[x].Value == iv {
					return false
				}
			}
			return true
		}

		// Pair absorption: attempt (i, j) into the nearest pair (k, l).
		if kind != action.KindCancel && completions >= 2 {
			for j := i + 1; j < len(h); j++ {
				if h[j].Type != event.Complete || h[j].Action != a {
					continue
				}
				if isReplay && !replayBinds(h[j], iv) {
					continue
				}
				ov := h[j].Value
				for l := j + 1; l < len(h); l++ {
					if h[l].Type != event.Complete || h[l].Action != a || h[l].Value != ov {
						continue
					}
					if isReplay && !replayBinds(h[l], iv) {
						continue
					}
					for k := i + 1; k < l; k++ {
						if k == j || !h[k].Equal(event.S(a, iv)) {
							continue
						}
						remove := rm(i, j, k, l)
						if !commitClean(i, l, remove) {
							continue
						}
						out := spliceAbsorb(h, i, l, remove, a, iv, ov, h[l].Annotation)
						n.record(rule, fmt.Sprintf("absorb duplicate pair of (%s, %s)", a, action.Display(iv)), h, out)
						return out, true
					}
				}
			}
		}

		// Dangler absorption: the start at i alone, into the next pair.
		if starts > completions {
			for k := i + 1; k < len(h); k++ {
				if !h[k].Equal(event.S(a, iv)) {
					continue
				}
				for l := k + 1; l < len(h); l++ {
					if h[l].Type != event.Complete || h[l].Action != a {
						continue
					}
					if isReplay && !replayBinds(h[l], iv) {
						continue
					}
					remove := rm(i, k, l)
					if !commitClean(i, l, remove) {
						break
					}
					out := spliceAbsorb(h, i, l, remove, a, iv, h[l].Value, h[l].Annotation)
					n.record(rule, fmt.Sprintf("absorb dangling start of (%s, %s)", a, action.Display(iv)), h, out)
					return out, true
				}
				break // nearest following start only
			}
		}
	}
	return h, false
}

// compact applies the Λ form of rules 18/20 until fixpoint: every
// idempotent, cancel, or commit pair becomes adjacent at the position of
// its completion event, with the junk that separated the pair moved in
// front of it. Pairs of undoable actions are never moved (no rule permits
// it). The result is the canonical interleaving-free shape that MatchTarget
// inspects.
func (n refNormalizer) compact(h event.History) event.History {
	for {
		changed := false
		for l := 0; l < len(h); l++ {
			c := h[l]
			if c.Type != event.Complete {
				continue
			}
			a := c.Action
			base, kind := action.Base(a)
			isCommit := kind == action.KindCommit && n.reg.IsUndoable(base)
			if !rule18Applies(n.reg, a) && !isCommit {
				continue
			}
			// Nearest preceding start of a.
			k := -1
			for x := l - 1; x >= 0; x-- {
				if h[x].Type == event.Start && h[x].Action == a {
					k = x
					break
				}
			}
			if k < 0 || k == l-1 {
				continue // no pair, or already adjacent
			}
			iv, ov := h[k].Value, c.Value
			if isCommit {
				clean := true
				for x := k + 1; x < l; x++ {
					if h[x].Type == event.Start && h[x].Action == base && h[x].Value == iv {
						clean = false
						break
					}
				}
				if !clean {
					continue
				}
			}
			remove := rm(k, l)
			out := spliceAbsorb(h, k, l, remove, a, iv, ov, c.Annotation)
			rule := Rule18
			if isCommit {
				rule = Rule20
			}
			n.record(rule, fmt.Sprintf("compact pair of (%s, %s)", a, action.Display(iv)), h, out)
			h = out
			changed = true
		}
		if !changed {
			return h
		}
	}
}

// splice removes the events marked in remove from the window [ws..we],
// keeping everything else in place.
func splice(h event.History, ws, we int, remove removeSet) event.History {
	out := make(event.History, 0, len(h)-len(remove))
	out = append(out, h[:ws]...)
	ri := 0
	for x := ws; x <= we; x++ {
		if ri < len(remove) && remove[ri] == x {
			ri++
			continue
		}
		out = append(out, h[x])
	}
	out = append(out, h[we+1:]...)
	return out
}
