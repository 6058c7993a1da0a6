// Package event implements the event and history calculus of the x-ability
// theory (§2.2–§2.3): start events S(a,iv), completion events C(a,ov),
// histories as totally-ordered event sequences, concatenation •, membership
// (a,iv) ∈ h, and the first()/second() operators of Figure 3.
//
// Formal identity of an event is exactly its (type, action, value) triple,
// as in the paper. Events additionally carry annotations — which replica
// produced them, which attempt, at what observer time — that are ignored by
// equality, pattern matching, and reduction, but invaluable when debugging a
// run or pretty-printing a reduction trace.
package event

import (
	"fmt"
	"strings"

	"xability/internal/action"
)

// Type distinguishes start from completion events.
type Type int

const (
	// Start is the paper's S(a, iv): the side effect of a may happen.
	Start Type = iota
	// Complete is the paper's C(a, ov): the side effect of a has happened.
	Complete
)

// String returns "S" or "C".
func (t Type) String() string {
	switch t {
	case Start:
		return "S"
	case Complete:
		return "C"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Event is an element of the paper's Event set:
//
//	e ::= S(a, iv) | C(a, ov)
//
// For Start events Value is the input value; for Complete events it is the
// output value.
type Event struct {
	Type   Type
	Action action.Name
	Value  action.Value

	// Annotation carries non-semantic metadata (replica id, attempt number,
	// wall-clock of observation). It does not participate in Equal, pattern
	// matching, or reduction.
	Annotation string
}

// S constructs a start event S(a, iv).
func S(a action.Name, iv action.Value) Event {
	return Event{Type: Start, Action: a, Value: iv}
}

// C constructs a completion event C(a, ov).
func C(a action.Name, ov action.Value) Event {
	return Event{Type: Complete, Action: a, Value: ov}
}

// WithAnnotation returns a copy of e carrying the annotation.
func (e Event) WithAnnotation(note string) Event {
	e.Annotation = note
	return e
}

// Equal reports formal event equality: type, action, and value. Annotations
// are ignored.
func (e Event) Equal(o Event) bool {
	return e.Type == o.Type && e.Action == o.Action && e.Value == o.Value
}

// Key returns a canonical comparable key for the event's formal identity,
// suitable for memoization maps.
func (e Event) Key() string {
	return string(e.appendKey(make([]byte, 0, len(e.Action)+len(e.Value)+4)))
}

// appendKey appends the event's Key to b. The checker builds keys on every
// memo probe; appending into a caller-sized buffer keeps that off the
// fmt/alloc path.
func (e Event) appendKey(b []byte) []byte {
	switch e.Type {
	case Start:
		b = append(b, 'S')
	case Complete:
		b = append(b, 'C')
	default:
		b = append(b, e.Type.String()...)
	}
	b = append(b, '(')
	b = append(b, e.Action...)
	b = append(b, ',')
	b = append(b, e.Value...)
	b = append(b, ')')
	return b
}

// String renders the event in paper notation, e.g. "S(debit, acct=7)".
func (e Event) String() string {
	s := fmt.Sprintf("%s(%s, %s)", e.Type, e.Action, action.Display(e.Value))
	if e.Annotation != "" {
		s += "{" + e.Annotation + "}"
	}
	return s
}

// History is the paper's History: a finite sequence of events whose order
// is the total order in which the hypothetical observer saw them. The nil
// slice is Λ, the empty history.
type History []Event

// Lambda is Λ, the empty history.
var Lambda = History(nil)

// Concat implements the • operator (eq. 3): the events of h followed by the
// events of each hs in order. The receiver is not modified.
func (h History) Concat(hs ...History) History {
	n := len(h)
	for _, x := range hs {
		n += len(x)
	}
	out := make(History, 0, n)
	out = append(out, h...)
	for _, x := range hs {
		out = append(out, x...)
	}
	return out
}

// Contains implements the paper's membership relation (a, iv) ∈ h: true iff
// h contains the start event S(a, iv).
func (h History) Contains(a action.Name, iv action.Value) bool {
	for _, e := range h {
		if e.Type == Start && e.Action == a && e.Value == iv {
			return true
		}
	}
	return false
}

// First implements first() of Figure 3: the first event of h as a
// single-event history, or Λ when h is empty.
func (h History) First() History {
	if len(h) == 0 {
		return Lambda
	}
	return History{h[0]}
}

// Second implements second() of Figure 3: for a two-event history the
// second event, for a one-event history that event, and Λ otherwise.
// (The paper defines it on histories of length ≤ 2; we extend it to longer
// histories by returning Λ, matching "the empty history otherwise".)
func (h History) Second() History {
	switch len(h) {
	case 1:
		return History{h[0]}
	case 2:
		return History{h[1]}
	default:
		return Lambda
	}
}

// Equal reports element-wise formal equality of two histories.
func (h History) Equal(o History) bool {
	if len(h) != len(o) {
		return false
	}
	for i := range h {
		if !h[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of h.
func (h History) Clone() History {
	if h == nil {
		return nil
	}
	out := make(History, len(h))
	copy(out, h)
	return out
}

// Key returns a canonical string for the formal content of h, suitable for
// memoization. Λ has key "Λ". The key is assembled with one allocation:
// history keys are the checker's memoization currency, built once per
// explored rewrite.
func (h History) Key() string {
	if len(h) == 0 {
		return "Λ"
	}
	n := 0
	for _, e := range h {
		n += len(e.Action) + len(e.Value) + 6 // type marker + punctuation + separator
	}
	b := make([]byte, 0, n)
	for i, e := range h {
		if i > 0 {
			b = append(b, "·"...)
		}
		b = e.appendKey(b)
	}
	return string(b)
}

// String renders h in paper notation: events separated by spaces, Λ for the
// empty history.
func (h History) String() string {
	if len(h) == 0 {
		return "Λ"
	}
	parts := make([]string, len(h))
	for i, e := range h {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// Filter returns the subsequence of h whose events satisfy keep, preserving
// order.
func (h History) Filter(keep func(Event) bool) History {
	var out History
	for _, e := range h {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Starts returns the number of start events for (a, iv) in h: the number of
// incarnations of the action visible in the history.
func (h History) Starts(a action.Name, iv action.Value) int {
	n := 0
	for _, e := range h {
		if e.Type == Start && e.Action == a && e.Value == iv {
			n++
		}
	}
	return n
}

// WellFormed checks the observation axioms of §2.2 on a per-action-name
// basis: a completion event of action a must be preceded by an unmatched
// start event of a. It returns an error naming the first offending event.
// (The axioms relate events to executions; on a bare history this prefix
// discipline is the checkable residue.)
func (h History) WellFormed() error {
	open := make(map[action.Name]int)
	for i, e := range h {
		switch e.Type {
		case Start:
			open[e.Action]++
		case Complete:
			if open[e.Action] == 0 {
				return fmt.Errorf("event %d: completion %s has no preceding unmatched start", i, e)
			}
			open[e.Action]--
		default:
			return fmt.Errorf("event %d: unknown event type %v", i, e.Type)
		}
	}
	return nil
}
