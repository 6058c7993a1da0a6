// Package pattern implements the history patterns of §2.4 (Figures 1–2):
//
//	sp ::= [a, iv, ov] | ?[a, iv, ov]
//	p  ::= sp | sp1 ‖h sp2
//
// A simple pattern matches single-action histories: [a,iv,ov] matches the
// two events of a failure-free execution; ?[a,iv,ov] matches a possibly
// failed execution (Λ, the start event alone, or both events). The composite
// pattern sp1 ‖h sp2 matches a history h′ that interleaves three
// sub-histories h1 ⊨ sp1, h2 ⊨ sp2 and an arbitrary junk history h, with two
// anchoring constraints (§2.4): the first event of h1 must be the first
// event of h′, and the last event of h2 must be the last event of h′.
//
// Interleaving semantics. Rules 9–11 of Figure 2 enumerate the legal
// interleavings via the first()/second() operators of Figure 3. Read
// literally, rules 10–11 duplicate the event of a one-event h1 (because
// first(e) = second(e) = e). We implement the evident intent instead: h′ is
// an order-preserving shuffle of h1, h2 and h in which every event of h′
// belongs to exactly one part, subject to the two anchors above. On
// histories where the literal rules are unambiguous (h1 with zero or two
// events) the two readings coincide; TestDecomposeAgreesWithLiteralRules
// verifies this against a transcription of rules 9–11.
//
// The output position of a simple pattern may be a wildcard (any ov): the
// reduction rules of Figure 4 use ?[aᵘ, iv, ov] with ov free in rule 19.
//
// This is the matcher the checker's reference enumeration runs on:
// reduce.Steps takes each rule instance of Figure 4 as a match from Each,
// filtered by the rule's side conditions.
package pattern

import (
	"fmt"

	"xability/internal/action"
	"xability/internal/event"
)

// Simple is a simple pattern sp.
type Simple struct {
	Action action.Name
	Input  action.Value
	Output action.Value

	// Maybe distinguishes ?[a,iv,ov] (true) from [a,iv,ov] (false).
	Maybe bool
	// AnyOutput makes the output position a wildcard: the pattern matches
	// any completion value. Used where the paper leaves ov existentially
	// quantified (e.g. the ?-part of reduction rule 19).
	AnyOutput bool
}

// Exact returns the pattern [a, iv, ov].
func Exact(a action.Name, iv, ov action.Value) Simple {
	return Simple{Action: a, Input: iv, Output: ov}
}

// Maybe returns the pattern ?[a, iv, ov].
func Maybe(a action.Name, iv, ov action.Value) Simple {
	return Simple{Action: a, Input: iv, Output: ov, Maybe: true}
}

// MaybeAny returns the pattern ?[a, iv, ov] with ov a wildcard.
func MaybeAny(a action.Name, iv action.Value) Simple {
	return Simple{Action: a, Input: iv, Maybe: true, AnyOutput: true}
}

// String renders the pattern in paper notation.
func (sp Simple) String() string {
	ov := action.Display(sp.Output)
	if sp.AnyOutput {
		ov = "∃ov"
	}
	s := fmt.Sprintf("[%s, %s, %s]", sp.Action, action.Display(sp.Input), ov)
	if sp.Maybe {
		s = "?" + s
	}
	return s
}

// startEvent returns the start event the pattern's action produces.
func (sp Simple) startEvent() event.Event { return event.S(sp.Action, sp.Input) }

// matchesStart reports whether e can be the start event of this pattern.
func (sp Simple) matchesStart(e event.Event) bool {
	return e.Type == event.Start && e.Action == sp.Action && e.Value == sp.Input
}

// matchesCompletion reports whether e can be the completion event of this
// pattern (honoring the output wildcard).
func (sp Simple) matchesCompletion(e event.Event) bool {
	if e.Type != event.Complete || e.Action != sp.Action {
		return false
	}
	return sp.AnyOutput || e.Value == sp.Output
}

// Matches implements ⊨ for simple patterns (rules 5–8 of Figure 2).
func (sp Simple) Matches(h event.History) bool {
	switch len(h) {
	case 0:
		return sp.Maybe // rule 6: Λ ⊨ ?[a,iv,ov]
	case 1:
		return sp.Maybe && sp.matchesStart(h[0]) // rule 7
	case 2:
		// rule 5 and rule 8: S(a,iv) C(a,ov).
		return sp.matchesStart(h[0]) && sp.matchesCompletion(h[1])
	default:
		return false
	}
}

// Part labels which sub-history an event of the matched history belongs to.
type Part int8

const (
	// PartJunk marks an event of the arbitrary interleaved history h.
	PartJunk Part = iota
	// PartFirst marks an event of h1 (the sp1 match).
	PartFirst
	// PartSecond marks an event of h2 (the sp2 match).
	PartSecond
)

// Decomposition is one way a history matches sp1 ‖h sp2. Assign labels each
// event of the matched history with its part; H1, H2 and Junk are the
// projected sub-histories (Junk is the paper's h, preserved verbatim by the
// reduction rules).
type Decomposition struct {
	Assign []Part
	H1     event.History
	H2     event.History
	Junk   event.History
}

// Compose matches h against the composite pattern sp1 ‖h sp2 and reports
// whether any decomposition exists.
func Compose(h event.History, sp1, sp2 Simple) bool {
	found := false
	Each(h, sp1, sp2, func(Match) bool { found = true; return false })
	return found
}

// Decompose enumerates decompositions of h matching sp1 ‖junk sp2, up to
// limit (limit ≤ 0 means all), in Each's order.
func Decompose(h event.History, sp1, sp2 Simple, limit int) []Decomposition {
	var out []Decomposition
	Each(h, sp1, sp2, func(m Match) bool {
		out = append(out, buildDecomposition(h, m))
		return limit <= 0 || len(out) < limit
	})
	return out
}

// Match is one decomposition of a history against sp1 ‖h sp2, by index: S1
// and C1 are the positions of h1's start and completion, S2 and C2 those of
// h2's, −1 for an event the part does not have. Every other event is junk.
type Match struct{ S1, C1, S2, C2 int }

// Each calls fn with every match of h against sp1 ‖h sp2 until fn returns
// false, allocating nothing. The order is deterministic: h1's candidates
// outermost — Λ, the start h[0] alone, then h[0] with each completion in
// turn — and for each, h2's (see tails).
//
// Because simple patterns match at most two events, a history has O(len(h)²)
// candidate index pairs.
func Each(h event.History, sp1, sp2 Simple, fn func(Match) bool) {
	if sp1.Maybe && !sp2.tails(h, -1, -1, fn) {
		return
	}
	if len(h) == 0 || !sp1.matchesStart(h[0]) {
		return
	}
	if sp1.Maybe && !sp2.tails(h, 0, -1, fn) {
		return
	}
	for c := 1; c < len(h); c++ {
		if sp1.matchesCompletion(h[c]) && !sp2.tails(h, 0, c, fn) {
			return
		}
	}
}

// tails calls fn with h1's candidate (s1, c1) and each of h2's that shares
// no event with it — Λ, the start h[n−1] alone, then each start with the
// completion h[n−1] — and reports whether fn asked for more.
func (sp Simple) tails(h event.History, s1, c1 int, fn func(Match) bool) bool {
	last := len(h) - 1
	yield := func(s2, c2 int) bool { return overlap(s1, c1, s2, c2) || fn(Match{s1, c1, s2, c2}) }
	if sp.Maybe && (!yield(-1, -1) || last >= 0 && sp.matchesStart(h[last]) && !yield(last, -1)) {
		return false
	}
	if last < 0 || !sp.matchesCompletion(h[last]) {
		return true
	}
	for s := 0; s < last; s++ {
		if sp.matchesStart(h[s]) && !yield(s, last) {
			return false
		}
	}
	return true
}

// overlap reports whether h1's events (s1, c1) and h2's (s2, c2) share one.
func overlap(s1, c1, s2, c2 int) bool {
	return s1 >= 0 && (s1 == s2 || s1 == c2) || c1 >= 0 && (c1 == s2 || c1 == c2)
}

func buildDecomposition(h event.History, m Match) Decomposition {
	d := Decomposition{Assign: make([]Part, len(h))}
	for i, e := range h {
		switch i {
		case m.S1, m.C1:
			d.Assign[i] = PartFirst
			d.H1 = append(d.H1, e)
		case m.S2, m.C2:
			d.Assign[i] = PartSecond
			d.H2 = append(d.H2, e)
		default:
			d.Junk = append(d.Junk, e)
		}
	}
	return d
}
