package reduce

import (
	"xability/internal/action"
	"xability/internal/event"
)

// The greedy strategy is defined by restart: apply the leftmost legal
// rewrite, start again from event zero (normalizeRef, in the tests, is that
// definition verbatim). The sweeps below make the same rewrites in the same
// order at the cost of the window each rewrite touches rather than of the
// history:
//
//   - every event carries the dense id of its action and of its group, and
//     what the rules ask of the whole history — (a,iv) ∈ h1, how many starts,
//     how many completions, is there a cancel pair ahead — is read off
//     counts kept per id. The scans that remain look for an event the counts
//     say exists and stop at it;
//   - the history is prefix • gap • rest. The cursor is the first event of
//     rest; an event it passes moves across the gap; a rewrite packs its
//     window's survivors against the window's end, so nothing after the
//     window moves and the freed slots widen the gap;
//   - after a rewrite a sweep resumes where it was instead of at zero.
//     DESIGN.md §2 has the argument for why that skips nothing, and the one
//     case (dedup's stuck) where it would.

// cell is one event of the history being normalized.
type cell struct {
	event.Event
	act int32 // index into sweep.acts
	// grp identifies (action, value) for a start and (action, annotation)
	// for an annotated completion, in one id space: a completion binds to
	// a tagged start under the replay lifting exactly when the ids agree
	// (replayBinds). -1 for an unannotated completion.
	grp int32
}

type grpKey struct {
	act int32
	val string
}

// actClass is what the sweeps need to know of an action name, asked of the
// registry once per name and history.
type actClass uint8

const (
	// absorbs: rule 18 or rule 20 applies (rule18Applies, or a commit of a
	// registered undoable action).
	absorbs actClass = 1 << iota
	// commits: a commit of a registered undoable action, so rule 20's
	// (aᵘ,iv) ∉ h′ constrains the window.
	commits
	// cancels: a cancel name. Cancel groups only use dangler absorption.
	cancels
	// undoable: a registered undoable action — rule 19's attempts, and the
	// replay lifting's candidates.
	undoable
	// cancelsUndoable: the cancel of a registered undoable action — what a
	// gratuitous pair is made of.
	cancelsUndoable
)

// The counts the sweeps read are kept twice: over the history, and over the
// prefix — what the cursor has passed. Ahead of the cursor is the
// difference.
const (
	inHistory = iota
	inPrefix
)

// actInfo is one interned action name. A derived name interns the name it
// derives from as well, so the links are complete without ever building a
// derived name: -1 means no event of the history carries it.
type actInfo struct {
	class                actClass
	base, cancel, commit int32
	// Completions of the action: all, unannotated, with output nil.
	comps, unann, nils [2]int32
}

// grpInfo counts a group's starts and the completions annotated with it.
type grpInfo struct{ starts, ann [2]int32 }

// sweep is the Normalizer's scratch: the history being normalized and its
// indexes. Everything is reused from one history to the next.
type sweep struct {
	actIDs map[action.Name]int32
	grpIDs map[grpKey]int32
	acts   []actInfo
	grps   []grpInfo

	// cells[:p] is the prefix, cells[r:end] the rest, cells[p:r] the gap.
	// Between sweeps the whole history is prefix.
	cells     []cell
	p, r, end int

	// last is the history after the latest recorded rewrite (Trace armed).
	last event.History

	// restarts counts the dedup sweeps that went back to zero; the
	// differential reads it to know its generator reaches that path.
	restarts int
}

// count adds d to the counts event c is part of, over the history or over
// the prefix.
func (n *Normalizer) count(where int, c *cell, d int32) {
	switch c.Type {
	case event.Start:
		n.grps[c.grp].starts[where] += d
	case event.Complete:
		a := &n.acts[c.act]
		a.comps[where] += d
		if c.grp < 0 {
			a.unann[where] += d
		} else {
			n.grps[c.grp].ann[where] += d
		}
		if c.Value == action.Nil {
			a.nils[where] += d
		}
	}
}

// size is the length of the history: prefix and rest.
func (n *Normalizer) size() int { return n.p + n.end - n.r }

// load interns h into the scratch.
func (n *Normalizer) load(h event.History) {
	if n.actIDs == nil {
		n.actIDs = make(map[action.Name]int32)
		n.grpIDs = make(map[grpKey]int32)
		n.acts = make([]actInfo, 0, 8) // action names are few
	}
	clear(n.actIDs)
	clear(n.grpIDs)
	if cap(n.cells) < len(h) {
		// No more groups than events.
		n.cells = make([]cell, len(h))
		n.grps = make([]grpInfo, 0, len(h))
	}
	n.cells, n.grps, n.acts = n.cells[:len(h)], n.grps[:0], n.acts[:0]
	for i, e := range h {
		c := &n.cells[i]
		*c = cell{Event: e, act: n.actID(e.Action), grp: -1}
		switch {
		case e.Type == event.Start:
			c.grp = n.grpID(c.act, string(e.Value))
		case e.Type == event.Complete && e.Annotation != "":
			c.grp = n.grpID(c.act, e.Annotation)
		}
		n.count(inHistory, c, 1)
	}
	n.p, n.r, n.end = len(h), len(h), len(h)
	if n.Trace != nil {
		n.last = h.Clone()
	}
}

func (n *Normalizer) actID(name action.Name) int32 {
	if id, ok := n.actIDs[name]; ok {
		return id
	}
	id := int32(len(n.acts))
	n.actIDs[name] = id
	base, derived := action.Base(name)
	var class actClass
	if rule18Applies(n.reg, name) {
		class |= absorbs
	}
	switch {
	case derived == action.KindCommit && n.reg.IsUndoable(base):
		class |= absorbs | commits
	case derived == action.KindCancel:
		class |= cancels
		if n.reg.IsUndoable(base) {
			class |= cancelsUndoable
		}
	case n.reg.IsUndoable(name):
		class |= undoable
	}
	n.acts = append(n.acts, actInfo{class: class, base: -1, cancel: -1, commit: -1})
	if base != name {
		b := n.actID(base)
		n.acts[id].base = b
		if derived == action.KindCancel {
			n.acts[b].cancel = id
		} else {
			n.acts[b].commit = id
		}
	}
	return id
}

func (n *Normalizer) grpID(act int32, val string) int32 {
	k := grpKey{act, val}
	id, ok := n.grpIDs[k]
	if !ok {
		id = int32(len(n.grps))
		n.grpIDs[k] = id
		n.grps = append(n.grps, grpInfo{})
	}
	return id
}

// snapshot copies the history out of the scratch.
func (n *Normalizer) snapshot() event.History {
	return n.appendTo(make(event.History, 0, n.size()))
}

// appendTo appends the history in the scratch to out.
func (n *Normalizer) appendTo(out event.History) event.History {
	for i := range n.cells[:n.p] {
		out = append(out, n.cells[i].Event)
	}
	for i := range n.cells[n.r:n.end] {
		out = append(out, n.cells[n.r+i].Event)
	}
	return out
}

// rewind starts a sweep: the history, all prefix after the last sweep,
// becomes all rest, and nothing is behind the cursor.
func (n *Normalizer) rewind() {
	if n.r < n.end { // mid-sweep: close the gap first
		n.p += copy(n.cells[n.p:], n.cells[n.r:n.end])
	}
	n.p, n.r, n.end = 0, 0, n.p
	for i := range n.grps {
		g := &n.grps[i]
		g.starts[inPrefix], g.ann[inPrefix] = 0, 0
	}
	for i := range n.acts {
		a := &n.acts[i]
		a.comps[inPrefix], a.unann[inPrefix], a.nils[inPrefix] = 0, 0, 0
	}
}

// advance moves the cursor's event across the gap.
func (n *Normalizer) advance() {
	n.count(inPrefix, &n.cells[n.r], 1)
	if n.p != n.r {
		n.cells[n.p] = n.cells[n.r]
	}
	n.p++
	n.r++
}

// startsBehind reports how many starts of group g the cursor has passed —
// (a,iv) ∈ h1 — and startsAhead how many it has yet to reach.
func (n *Normalizer) startsBehind(g int32) int32 { return n.grps[g].starts[inPrefix] }
func (n *Normalizer) startsAhead(g int32) int32 {
	return n.grps[g].starts[inHistory] - n.grps[g].starts[inPrefix]
}

// nilsAhead reports how many completions C(act, nil) the cursor has yet to
// reach.
func (n *Normalizer) nilsAhead(act int32) int32 {
	return n.acts[act].nils[inHistory] - n.acts[act].nils[inPrefix]
}

// shut drops the cells at gone (ascending, all within [lo..hi]) and slides
// the survivors of cells[lo..hi] right until they end at hi. It returns
// where they now begin.
func (n *Normalizer) shut(lo, hi int, gone removeSet) int {
	w, g := hi, len(gone)-1
	for x := hi; x >= lo; x-- {
		if g >= 0 && gone[g] == x {
			g--
			continue
		}
		if w != x {
			n.cells[w] = n.cells[x]
		}
		w--
	}
	return w + 1
}

// absorb rewrites the window cells[lo..l] as rules 18 and 20 do, into
// junk • S(a,iv) C(a,ov): the cells at gone (ascending) vanish, everything
// else in front of l keeps its order, the start at k — one of gone — is
// re-emitted (unannotated, as event.S builds it) next to the completion at
// l, which stays where it is with its annotation. It returns where the
// window now begins.
func (n *Normalizer) absorb(lo, l, k int, gone removeSet) int {
	s := n.cells[k]
	s.Annotation = ""
	z := gone[len(gone)-1]
	copy(n.cells[z:l-1], n.cells[z+1:l])
	n.cells[l-1] = s
	return n.shut(lo, z-1, gone[:len(gone)-1])
}

// completesNil reports whether c is C(act, nil), the completion of a
// cancel or commit.
func (c *cell) completesNil(act int32) bool {
	return c.Type == event.Complete && c.act == act && c.Value == action.Nil
}

// nextStart finds the first start of group g at or after x; the counts say
// there is one.
func (n *Normalizer) nextStart(x int, g int32) int {
	for n.cells[x].Type != event.Start || n.cells[x].grp != g {
		x++
	}
	return x
}

// startIn reports whether cells[lo..hi] hold the start S(act, v); act < 0
// is a name no event carries.
func (n *Normalizer) startIn(lo, hi int, act int32, v action.Value) bool {
	if act < 0 {
		return false
	}
	for x := lo; x <= hi; x++ {
		if c := &n.cells[x]; c.Type == event.Start && c.act == act && c.Value == v {
			return true
		}
	}
	return false
}

// dedup applies rules 18 (idempotent and cancel actions) and 20 (commit
// actions) with a non-empty ?-part until none applies, each time absorbing
// one duplicate execution of the leftmost over-represented (action, input)
// group that has a legal absorption. It reports whether it rewrote
// anything.
//
// After a rewrite the sweep resumes at the anchor: the prefix is unchanged,
// and each anchor in it was passed for a reason a rewrite of another group
// leaves standing. The exception is an over-represented group passed for
// want of a legal absorption (stuck): its dangler guard reads a completion
// count that a later pair absorption of the same action lowers, and rule
// 20's constraint a window that a later rewrite of the committed action
// clears. So after the next rewrite the sweep starts again from zero, as
// the definition does every time.
func (n *Normalizer) dedup() (changed bool) {
	n.rewind()
	stuck := false
	for n.r < n.end {
		rewrote, over := n.dedupAt()
		switch {
		case !rewrote:
			stuck = stuck || over
			n.advance()
		case stuck:
			changed, stuck = true, false
			n.restarts++
			n.rewind()
		default:
			changed = true
		}
	}
	return changed
}

// dedupAt tries the cursor's event as the anchor of an absorption: the
// first start of a group with more starts than the target has executions.
// Two shapes, tried in order:
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
// surplus pairs fall to the gratuitous-cancel sweep afterwards.
//
// Round-tagged executions of undoable actions join rule 18 through the §5.2
// idempotence lifting (replayApplies): a recovered replica that resumes its
// round re-invokes the same tagged transaction, so its duplicate execution
// pair absorbs like any idempotent retry. Their completions bind by
// attribution annotation (replayBinds), never across tags.
//
// over reports an over-represented group for which neither shape was legal.
func (n *Normalizer) dedupAt() (rewrote, over bool) {
	i := n.r
	c := &n.cells[i]
	if c.Type != event.Start {
		return false, false
	}
	info := &n.acts[c.act]
	if info.class&(absorbs|undoable) == 0 || n.startsBehind(c.grp) > 0 {
		return false, false // only the group's first start anchors absorption
	}
	g, a, iv := c.grp, c.Action, c.Value
	starts := int(n.grps[g].starts[inHistory])
	if starts <= 1 || starts <= n.expectedCount(a, iv) {
		return false, false
	}
	// Completions of the group, in the history and ahead of the anchor
	// (an absorption needs its completions ahead; with too few there, the
	// searches below would scan to the end for nothing). Tagged undoable
	// executions (the §5.2 replay lifting) only count
	// completions attributable to their own tag, so a sibling round's
	// completion neither inflates the dangler guard nor gets stolen as an
	// absorption target.
	replay := info.class&absorbs == 0
	completions := int(info.comps[inHistory])
	ahead := completions - int(info.comps[inPrefix])
	if replay {
		if _, id, _ := action.SplitTag(iv); id == "" {
			return false, false // untagged: no at-most-once guarantee
		}
		completions = int(info.unann[inHistory] + n.grps[g].ann[inHistory])
		ahead = completions - int(info.unann[inPrefix]+n.grps[g].ann[inPrefix])
	}
	// binds: a completion of the anchor's action that may complete the
	// group's executions.
	binds := func(x *cell) bool {
		return x.Type == event.Complete && x.act == c.act && (!replay || x.grp < 0 || x.grp == g)
	}
	rule, base := Rule18, int32(-1)
	if info.class&commits != 0 {
		rule, base = Rule20, info.base
	}

	// Pair absorption: attempt (i, j) into the nearest pair (k, l).
	if info.class&cancels == 0 && completions >= 2 && ahead >= 2 {
		for j := i + 1; j < n.end; j++ {
			if !binds(&n.cells[j]) {
				continue
			}
			ov := n.cells[j].Value
			for l := j + 1; l < n.end; l++ {
				if !binds(&n.cells[l]) || n.cells[l].Value != ov {
					continue
				}
				for k := i + 1; k < l; k++ {
					if s := &n.cells[k]; s.Type != event.Start || s.grp != g {
						continue
					}
					if n.startIn(i, l, base, iv) {
						continue
					}
					n.count(inHistory, &n.cells[i], -1)
					n.count(inHistory, &n.cells[j], -1)
					n.r = n.absorb(i, l, k, rm(i, j, k))
					n.record(rule, "absorb duplicate pair", a, iv)
					return true, false
				}
			}
		}
	}

	// Dangler absorption: the start at i alone, into the next pair — the
	// nearest following start only.
	if starts > completions && ahead >= 1 {
		k := n.nextStart(i+1, g)
		for l := k + 1; l < n.end; l++ {
			if !binds(&n.cells[l]) {
				continue
			}
			if n.startIn(i, l, base, iv) {
				break
			}
			n.count(inHistory, &n.cells[i], -1)
			n.r = n.absorb(i, l, k, rm(i, k))
			n.record(rule, "absorb dangling start", a, iv)
			return true, false
		}
	}
	return false, true
}

// cancel applies rule 19 until it no longer applies: cancelled first
// attempts leftmost first, then gratuitous cancel pairs leftmost first. It
// reports whether it rewrote anything.
//
// Neither sweep looks back. A rule 19 rewrite only removes events, and
// never a commit start: an anchor passed because it is not its group's
// first attempt, has no cancel pair after it, or has a commit start in its
// window is in the same position afterwards (its window can only have
// grown). For the same reason the first sweep finds nothing new after the
// second.
func (n *Normalizer) cancel() (changed bool) {
	attempts := n.each(n.cancelAttemptAt)
	return n.each(n.cancelGratuitousAt) || attempts
}

// each sweeps the history once, trying every event as an anchor: at
// rewrites at the cursor and reports whether it did; the sweep resumes
// where the rewrite left the cursor.
func (n *Normalizer) each(at func() bool) (changed bool) {
	n.rewind()
	for n.r < n.end {
		if at() {
			changed = true
		} else {
			n.advance()
		}
	}
	return changed
}

// cancelAttemptAt tries the cursor's event as an attempt that a later
// cancel pair cancels.
func (n *Normalizer) cancelAttemptAt() bool {
	i := n.r
	c := &n.cells[i]
	if c.Type != event.Start {
		return false
	}
	info := &n.acts[c.act]
	if info.class&undoable == 0 || info.cancel < 0 {
		return false
	}
	if n.startsBehind(c.grp) > 0 {
		return false // rule 19 requires (aᵘ,iv) ∉ h1: only the first attempt
	}
	iv := c.Value
	gc, ok := n.grpIDs[grpKey{info.cancel, string(iv)}]
	if !ok || n.startsAhead(gc) == 0 || n.nilsAhead(info.cancel) == 0 {
		return false
	}
	// The first cancel pair after the attempt: its start is ahead, its
	// completion is unless every one left lies in front of that start.
	m := n.nextStart(i+1, gc)
	l := m + 1
	for l < n.end && !n.cells[l].completesNil(info.cancel) {
		l++
	}
	if l == n.end {
		return false
	}
	// Absorb the attempt's completion, if it completed (free ov).
	idx := [4]int{i, m, l}
	gone := idx[:3]
	for j := i + 1; j < l; j++ {
		if x := &n.cells[j]; x.Type == event.Complete && x.act == c.act {
			gone = append(gone, j)
			break
		}
	}
	// (aᶜ,iv) ∉ h′: the junk must not contain the commit's start.
	if n.startIn(i, l, info.commit, iv) {
		return false
	}
	a := c.Action
	n.remove(i, l, rm(gone...))
	n.record(Rule19, "cancel attempt", a, iv)
	return true
}

// cancelGratuitousAt tries the cursor's event as the start of a gratuitous
// cancel pair: no attempt anywhere before it. Unlike an attempt it need not
// be the first of its group — a cancel start whose earlier twin has a
// commit start in its window still anchors.
func (n *Normalizer) cancelGratuitousAt() bool {
	m := n.r
	c := &n.cells[m]
	if c.Type != event.Start {
		return false
	}
	info := &n.acts[c.act]
	if info.class&cancelsUndoable == 0 {
		return false
	}
	iv := c.Value
	gu, attempted := n.grpIDs[grpKey{info.base, string(iv)}]
	if attempted && n.startsBehind(gu) > 0 {
		return false
	}
	if n.nilsAhead(c.act) == 0 {
		return false
	}
	// The window may not contain an attempt either: with a minimal
	// window [m..l] an attempt between the pair would be junk, which
	// rule 19 permits — but removing the only cancel of a live attempt
	// is a reduction dead end, so the greedy strategy declines.
	l := m + 1
	for ; !n.cells[l].completesNil(c.act); l++ { // there is one ahead
		if x := &n.cells[l]; attempted && x.Type == event.Start && x.grp == gu {
			return false
		}
	}
	if n.startIn(m, l, n.acts[info.base].commit, iv) {
		return false
	}
	au, _ := action.Base(c.Action)
	n.remove(m, l, rm(m, l))
	n.record(Rule19, "remove gratuitous cancel", au, iv)
	return true
}

// remove rewrites the window cells[lo..l] as rule 19 does: the cells at
// gone vanish, the junk stays.
func (n *Normalizer) remove(lo, l int, gone removeSet) {
	for _, x := range gone {
		n.count(inHistory, &n.cells[x], -1)
	}
	n.r = n.shut(lo, l, gone)
}

// compact applies the Λ form of rules 18/20 until fixpoint: every
// idempotent, cancel, or commit pair becomes adjacent at the position of
// its completion event, with the junk that separated the pair moved in
// front of it. Pairs of undoable actions are never moved (no rule permits
// it). The result is the canonical interleaving-free shape that MatchTarget
// inspects. No event leaves or joins the history, so it works on the
// prefix in place: the junk between a pair moves one slot left.
func (n *Normalizer) compact() {
	for changed := true; changed; {
		changed = false
		for l := 0; l < n.p; l++ {
			c := &n.cells[l]
			info := &n.acts[c.act]
			if c.Type != event.Complete || info.class&absorbs == 0 {
				continue
			}
			// Nearest preceding start of a.
			k := l - 1
			for k >= 0 && (n.cells[k].Type != event.Start || n.cells[k].act != c.act) {
				k--
			}
			if k < 0 || k == l-1 {
				continue // no pair, or already adjacent
			}
			a, iv := c.Action, n.cells[k].Value
			rule := Rule18
			if info.class&commits != 0 {
				rule = Rule20
				if n.startIn(k+1, l-1, info.base, iv) {
					continue
				}
			}
			n.absorb(k, l, k, rm(k))
			n.record(rule, "compact pair", a, iv)
			changed = true
		}
	}
}
