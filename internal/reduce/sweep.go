package reduce

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"xability/internal/action"
	"xability/internal/event"
)

// The greedy strategy is defined by restart: apply the leftmost legal
// rewrite, start again from event zero (normalizeRef, in the tests, is that
// definition verbatim). The sweeps below make the same rewrites in the same
// order at the cost of the window each rewrite touches rather than of the
// history:
//
//   - the history is interned once, when it is loaded: a cell is 16
//     pointer-free bytes — the index of its event in the source history,
//     the dense id of its action and of its group, and marks (start or
//     completion, output nil, re-emitted bare) — so a sweep that shifts
//     cells copies no pointer, and a value it compares is read through the
//     source. What the rules ask of the whole history — (a,iv) ∈ h1, how
//     many starts, how many completions, how many executions the target
//     holds, is there a cancel pair ahead — is read off counts kept per id.
//     load hashes each value that names a group (a start's, an annotated
//     completion's annotation) once, into a pointer-free open-addressed
//     table sized to the history, whose keys are read through the source
//     too; so a load costs its own history, however large the one before.
//     The groups of one value under an undoable action, its cancel and its
//     commit are adjacent ids, so rules 19 and 20 step between them without
//     hashing: nothing is hashed after load. The scans that remain look for
//     an event the counts say exists and stop at it;
//   - the history is prefix • gap • rest. The cursor is the first event of
//     rest; an event it passes moves across the gap; a rewrite packs its
//     window's survivors against the window's end, so nothing after the
//     window moves and the freed slots widen the gap;
//   - after a rewrite a sweep resumes where it was instead of at zero.
//     DESIGN.md §2 has the argument for why that skips nothing, and the one
//     case (dedup's stuck) where it would.

// cell is one event of the history being normalized.
type cell struct {
	at  int32 // index of the event in sweep.src
	act int32 // index into sweep.acts
	// grp identifies (action, value) for a start and (action, annotation)
	// for an annotated completion, in one id space: a completion binds to
	// a tagged start under the replay lifting exactly when the ids agree
	// (replayBinds). -1 for an unannotated completion.
	grp  int32
	mark mark
}

// mark is what a cell's event is, so far as the sweeps ask.
type mark uint8

const (
	opens      mark = 1 << iota // a start
	closes                      // a completion
	outputsNil                  // a completion with output nil
	// bare: a start an absorption re-emitted, unannotated as event.S
	// builds it.
	bare
)

// slot is one entry of the group table, which files a family of groups —
// one, or the three of a value under an undoable action, its cancel and
// its commit — under a key: an action (the undoable one) and a value. The
// slot holds the key's hash and the event the key was first read from, 1+at
// for event at's value, -1-at for its annotation (0: empty); that event's
// cell holds the action and the group.
type slot struct {
	hash uint32
	from int32
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
// derives from as well, as base (-1 for a name that derives from none).
type actInfo struct {
	class actClass
	base  int32
	// Completions of the action: all, unannotated, with output nil.
	comps, unann, nils [2]int32
}

// grpInfo counts a group's starts and the completions annotated with it,
// and want, how many executions of it the reduction target holds (read as
// 1 when 0).
type grpInfo struct {
	starts, ann [2]int32
	want        int32
}

// The groups of one value under an undoable action, its cancel and its
// commit are three ids in a row: the cancel's and the commit's are the
// attempt's plus these.
const (
	toCancel = 1
	toCommit = 2
)

// sweep is the Normalizer's scratch: the history being normalized and its
// indexes. Everything is reused from one history to the next.
type sweep struct {
	actIDs map[action.Name]int32
	acts   []actInfo
	grps   []grpInfo

	// slots is the group table, open-addressed by the keys' hashes under
	// seed: a power of two, more than twice the history's events that name
	// a group, so more than twice its families.
	slots []slot
	seed  maphash.Seed

	// src is the history being normalized, which cells index, while a call
	// runs; cells[:p] is the prefix, cells[r:end] the rest, cells[p:r] the
	// gap. Between sweeps the whole history is prefix.
	src       event.History
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
	switch {
	case c.mark&opens != 0:
		n.grps[c.grp].starts[where] += d
	case c.mark&closes != 0:
		a := &n.acts[c.act]
		a.comps[where] += d
		if c.grp < 0 {
			a.unann[where] += d
		} else {
			n.grps[c.grp].ann[where] += d
		}
		if c.mark&outputsNil != 0 {
			a.nils[where] += d
		}
	}
}

// size is the length of the history: prefix and rest.
func (n *Normalizer) size() int { return n.p + n.end - n.r }

// load interns h into the scratch, and the target specs into its groups'
// wants.
func (n *Normalizer) load(h event.History, specs []TargetSpec) {
	if n.actIDs == nil {
		n.actIDs = make(map[action.Name]int32)
		n.acts = make([]actInfo, 0, 8) // action names are few
		n.seed = maphash.MakeSeed()
	}
	clear(n.actIDs)
	// The history has no more families than events that name a group, nor
	// more groups but for an undoable value's three ids. The scratch keeps
	// the largest size it was grown to; the table is cleared to the size of
	// this history.
	named := 0
	for i := range h {
		if h[i].Type == event.Start || h[i].Annotation != "" {
			named++
		}
	}
	if size := 1 << bits.Len(uint(2*named)); cap(n.slots) < size {
		n.slots = make([]slot, size)
	} else {
		n.slots = n.slots[:size]
		clear(n.slots)
	}
	if cap(n.grps) < named {
		n.grps = make([]grpInfo, 0, named)
	}
	if cap(n.cells) < len(h) {
		n.cells = make([]cell, len(h))
	}
	n.src, n.cells, n.grps, n.acts = h, n.cells[:len(h)], n.grps[:0], n.acts[:0]
	var name action.Name
	act := int32(-1)
	for i := range h {
		e := &h[i]
		if act < 0 || e.Action != name { // runs of one action are common
			name, act = e.Action, n.actID(e.Action)
		}
		c := &n.cells[i]
		*c = cell{at: int32(i), act: act, grp: -1}
		switch e.Type {
		case event.Start:
			c.mark = opens
			c.grp = n.grpID(act, int32(i), false)
		case event.Complete:
			c.mark = closes
			if e.Value == action.Nil {
				c.mark |= outputsNil
			}
			if e.Annotation != "" {
				c.grp = n.grpID(act, int32(i), true)
			}
		}
		n.count(inHistory, c, 1)
	}
	// Only a group with more than one start asks what the target wants. An
	// undoable request is tagged per request/round: its group never
	// collides.
	if slices.ContainsFunc(n.grps, func(g grpInfo) bool { return g.starts[inHistory] > 1 }) {
		for _, t := range specs {
			if a, ok := n.actIDs[t.Action]; ok && !t.Undoable {
				ka, off, _ := n.family(a)
				if g, _, _ := n.find(ka, string(t.Input)); g >= 0 {
					n.grps[g+off].want++
				}
			}
		}
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
	n.acts = append(n.acts, actInfo{class: class, base: -1})
	if base != name {
		b := n.actID(base)
		n.acts[id].base = b
	}
	return id
}

// grpID returns the id of the group of event at, an event of action act:
// (act, its value), or (act, its annotation) when ann.
func (n *Normalizer) grpID(act, at int32, ann bool) int32 {
	ka, off, width := n.family(act)
	from := 1 + at
	if ann {
		from = -from
	}
	g, free, hash := n.find(ka, n.key(from))
	if g < 0 {
		g = int32(len(n.grps))
		*free = slot{hash: hash, from: from}
		for range width {
			n.grps = append(n.grps, grpInfo{})
		}
	}
	return g + off
}

// family returns the action the groups of act are keyed under, a group's
// offset from its family's first, and how many groups a family holds:
// three for an undoable action, its cancel and its commit, keyed by the
// undoable action.
func (n *Normalizer) family(act int32) (ka, off int32, width int) {
	switch a := &n.acts[act]; {
	case a.class&undoable != 0:
		return act, 0, 3
	case a.class&cancelsUndoable != 0:
		return a.base, toCancel, 3
	case a.class&commits != 0:
		return a.base, toCommit, 3
	}
	return act, 0, 1
}

// key is the value a slot's from names: an event's value or annotation.
func (n *Normalizer) key(from int32) string {
	if from < 0 {
		return n.src[-from-1].Annotation
	}
	return string(n.src[from-1].Value)
}

// find looks up the family keyed (act, val): the id of its first group, or
// -1 and the free slot where it goes, and the key's hash. The table is
// never full. Only load calls it, while cell i is still event i's.
func (n *Normalizer) find(act int32, val string) (g int32, free *slot, hash uint32) {
	hash = uint32(maphash.String(n.seed, val)) ^ uint32(act)*0x9e3779b9
	mask := uint32(len(n.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		s := &n.slots[i]
		if s.from == 0 {
			return -1, s, hash
		}
		if s.hash != hash {
			continue
		}
		c := &n.cells[max(s.from, -s.from)-1] // the event the key was read from
		if ka, off, _ := n.family(c.act); ka == act && n.key(s.from) == val {
			return c.grp - off, s, hash
		}
	}
}

// snapshot copies the history out of the scratch: prefix, then rest.
func (n *Normalizer) snapshot() event.History {
	out := make(event.History, 0, n.size())
	for _, part := range [2][]cell{n.cells[:n.p], n.cells[n.r:n.end]} {
		for i := range part {
			out = append(out, n.event(&part[i]))
		}
	}
	return out
}

// event rebuilds the event of cell c.
func (n *Normalizer) event(c *cell) event.Event {
	e := n.src[c.at]
	if c.mark&bare != 0 {
		e.Annotation = ""
	}
	return e
}

// value is the input or output value of cell c's event.
func (n *Normalizer) value(c *cell) action.Value { return n.src[c.at].Value }

// rewind starts a sweep: the history, all prefix after the last sweep,
// becomes all rest, and nothing is behind the cursor.
func (n *Normalizer) rewind() {
	if n.r < n.end { // mid-sweep: close the gap first
		n.p += copy(n.cells[n.p:], n.cells[n.r:n.end])
	}
	n.p, n.r, n.end = 0, 0, n.p
	for i := range n.grps {
		n.grps[i].starts[inPrefix], n.grps[i].ann[inPrefix] = 0, 0
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
	s.mark |= bare
	z := gone[len(gone)-1]
	copy(n.cells[z:l-1], n.cells[z+1:l])
	n.cells[l-1] = s
	return n.shut(lo, z-1, gone[:len(gone)-1])
}

// completesNil reports whether c is C(act, nil), the completion of a
// cancel or commit.
func (c *cell) completesNil(act int32) bool {
	return c.mark&outputsNil != 0 && c.act == act
}

// starts reports whether c is a start of group g.
func (c *cell) starts(g int32) bool { return c.mark&opens != 0 && c.grp == g }

// nextStart finds the first start of group g at or after x; the counts say
// there is one.
func (n *Normalizer) nextStart(x int, g int32) int {
	return x + slices.IndexFunc(n.cells[x:], func(c cell) bool { return c.starts(g) })
}

// startIn reports whether cells[lo..hi] hold a start of group g; g < 0 is
// a group no event names.
func (n *Normalizer) startIn(lo, hi int, g int32) bool {
	return g >= 0 && slices.ContainsFunc(n.cells[lo:hi+1], func(c cell) bool { return c.starts(g) })
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
	if c.mark&opens == 0 {
		return false, false
	}
	info := &n.acts[c.act]
	if info.class&(absorbs|undoable) == 0 || n.startsBehind(c.grp) > 0 {
		return false, false // only the group's first start anchors absorption
	}
	g, a, iv := c.grp, n.src[c.at].Action, n.value(c)
	starts := n.grps[g].starts[inHistory]
	if starts <= 1 || starts <= n.grps[g].want {
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
	completions := info.comps[inHistory]
	ahead := completions - info.comps[inPrefix]
	if replay {
		if _, id, _ := action.SplitTag(iv); id == "" {
			return false, false // untagged: no at-most-once guarantee
		}
		completions = info.unann[inHistory] + n.grps[g].ann[inHistory]
		ahead = completions - (info.unann[inPrefix] + n.grps[g].ann[inPrefix])
	}
	// binds: a completion of the anchor's action that may complete the
	// group's executions.
	binds := func(x *cell) bool {
		return x.mark&closes != 0 && x.act == c.act && (!replay || x.grp < 0 || x.grp == g)
	}
	rule, base := Rule18, int32(-1)
	if info.class&commits != 0 {
		rule, base = Rule20, g-toCommit
	}

	// Pair absorption: attempt (i, j) into the nearest pair (k, l).
	if info.class&cancels == 0 && completions >= 2 && ahead >= 2 {
		for j := i + 1; j < n.end; j++ {
			if !binds(&n.cells[j]) {
				continue
			}
			ov := n.value(&n.cells[j])
			for l := j + 1; l < n.end; l++ {
				if !binds(&n.cells[l]) || n.value(&n.cells[l]) != ov {
					continue
				}
				for k := i + 1; k < l; k++ {
					if !n.cells[k].starts(g) {
						continue
					}
					if n.startIn(i, l, base) {
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
			if n.startIn(i, l, base) {
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
	if !slices.ContainsFunc(n.acts, func(a actInfo) bool { return a.class&(undoable|cancelsUndoable) != 0 }) {
		return false // no attempt and no cancel of one: neither sweep can rewrite
	}
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
	if c.mark&opens == 0 || n.acts[c.act].class&undoable == 0 {
		return false
	}
	// Rule 19 requires (aᵘ,iv) ∉ h1: only the first attempt.
	gc := c.grp + toCancel
	if n.startsBehind(c.grp) > 0 || n.startsAhead(gc) == 0 {
		return false
	}
	// The first cancel pair after the attempt: its start is ahead, its
	// completion is unless every one left lies in front of that start.
	m := n.nextStart(i+1, gc)
	cancel := n.cells[m].act
	if n.nilsAhead(cancel) == 0 {
		return false
	}
	l := m + 1
	for l < n.end && !n.cells[l].completesNil(cancel) {
		l++
	}
	if l == n.end {
		return false
	}
	// Absorb the attempt's completion, if it completed (free ov).
	idx := [4]int{i, m, l}
	gone := idx[:3]
	for j := i + 1; j < l; j++ {
		if x := &n.cells[j]; x.mark&closes != 0 && x.act == c.act {
			gone = append(gone, j)
			break
		}
	}
	// (aᶜ,iv) ∉ h′: the junk must not contain the commit's start.
	if n.startIn(i, l, c.grp+toCommit) {
		return false
	}
	e := n.src[c.at]
	n.remove(i, l, rm(gone...))
	n.record(Rule19, "cancel attempt", e.Action, e.Value)
	return true
}

// cancelGratuitousAt tries the cursor's event as the start of a gratuitous
// cancel pair: no attempt anywhere before it. Unlike an attempt it need not
// be the first of its group — a cancel start whose earlier twin has a
// commit start in its window still anchors.
func (n *Normalizer) cancelGratuitousAt() bool {
	m := n.r
	c := &n.cells[m]
	if c.mark&opens == 0 || n.acts[c.act].class&cancelsUndoable == 0 {
		return false
	}
	gu := c.grp - toCancel // the attempts' group
	if n.startsBehind(gu) > 0 || n.nilsAhead(c.act) == 0 {
		return false
	}
	// The window may not contain an attempt either: with a minimal
	// window [m..l] an attempt between the pair would be junk, which
	// rule 19 permits — but removing the only cancel of a live attempt
	// is a reduction dead end, so the greedy strategy declines.
	l := m + 1
	for ; !n.cells[l].completesNil(c.act); l++ { // there is one ahead
		if n.cells[l].starts(gu) {
			return false
		}
	}
	if n.startIn(m, l, gu+toCommit) {
		return false
	}
	e := n.src[c.at]
	au, _ := action.Base(e.Action)
	n.remove(m, l, rm(m, l))
	n.record(Rule19, "remove gratuitous cancel", au, e.Value)
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
			if c.mark&closes == 0 || info.class&absorbs == 0 {
				continue
			}
			// Nearest preceding start of a.
			k := l - 1
			for k >= 0 && (n.cells[k].mark&opens == 0 || n.cells[k].act != c.act) {
				k--
			}
			if k < 0 || k == l-1 {
				continue // no pair, or already adjacent
			}
			a, iv := n.src[c.at].Action, n.value(&n.cells[k])
			rule := Rule18
			if info.class&commits != 0 {
				rule = Rule20
				if n.startIn(k+1, l-1, n.cells[k].grp-toCommit) {
					continue
				}
			}
			n.absorb(k, l, k, rm(k))
			n.record(rule, "compact pair", a, iv)
			changed = true
		}
	}
}
