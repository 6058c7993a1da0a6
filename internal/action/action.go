// Package action models the action vocabulary of the x-ability theory
// (Frølund & Guerraoui, PODC 2000, §2.1 and §3.1).
//
// An action is a named operation exported by a state machine. Actions take
// an input Value and produce an output Value; they may mutate state local to
// the machine and they may have side effects on external, third-party
// entities. The theory distinguishes two fault-tolerance classes:
//
//   - Idempotent actions: n executions have the same side effect as one.
//   - Undoable actions: like a transaction, an execution can be cancelled
//     (rolled back) by the derived cancellation action a⁻¹ up until the
//     derived commit action aᶜ makes it permanent.
//
// Cancellation and commit actions are themselves idempotent, take the same
// input as the action they derive from, and return the distinguished value
// Nil (§3.1).
package action

import (
	"fmt"
	"strconv"
	"strings"
)

// Name identifies an action. Derived cancel/commit actions use a reserved
// "!" suffix on the base name; user-defined action names must not contain
// the '!' character (enforced by Validate).
type Name string

// Value is an element of the paper's Value set: the inputs and outputs of
// actions. Values are opaque strings with decidable equality, which is all
// the pattern-matching relation ⊨ and the reduction relation ⇒ require.
// Structured inputs are encoded with EncodeTuple / DecodeTuple.
type Value string

// Nil is the distinguished return value of cancellation and commit actions
// (the paper's "nil"). It is deliberately not the empty string so that an
// action legitimately returning "" is distinguishable from nil.
const Nil Value = "\x00nil"

// Kind classifies an action per §3.1.
type Kind int

const (
	// KindIdempotent marks an action whose repeated execution has the same
	// side effect as a single execution (members of the paper's Idempotent
	// set, written aⁱ).
	KindIdempotent Kind = iota
	// KindUndoable marks an action that can be rolled back until committed
	// (members of the paper's Undoable set, written aᵘ).
	KindUndoable
	// KindCancel marks a derived cancellation action a⁻¹ of an undoable
	// action. Cancel actions are idempotent.
	KindCancel
	// KindCommit marks a derived commit action aᶜ of an undoable action.
	// Commit actions are idempotent.
	KindCommit
)

// String returns the paper notation for the kind.
func (k Kind) String() string {
	switch k {
	case KindIdempotent:
		return "idempotent"
	case KindUndoable:
		return "undoable"
	case KindCancel:
		return "cancel"
	case KindCommit:
		return "commit"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

const (
	cancelSuffix = "!cancel"
	commitSuffix = "!commit"
)

// Cancel returns the name of the cancellation action a⁻¹ for the undoable
// action a (the paper's cancel primitive, §5.4).
func Cancel(a Name) Name { return a + cancelSuffix }

// Commit returns the name of the commit action aᶜ for the undoable action a
// (the paper's commit primitive, §5.4).
func Commit(a Name) Name { return a + commitSuffix }

// Base returns the undoable action a derived-from name refers to, together
// with the kind of the name. For a plain (non-derived) name it returns the
// name itself and KindIdempotent; classification of plain names between
// idempotent and undoable is the registry's job (see Registry.Kind).
func Base(a Name) (Name, Kind) {
	s := string(a)
	switch {
	case strings.HasSuffix(s, cancelSuffix):
		return Name(strings.TrimSuffix(s, cancelSuffix)), KindCancel
	case strings.HasSuffix(s, commitSuffix):
		return Name(strings.TrimSuffix(s, commitSuffix)), KindCommit
	default:
		return a, KindIdempotent
	}
}

// IsDerived reports whether a is a cancel or commit action name.
func IsDerived(a Name) bool {
	_, k := Base(a)
	return k == KindCancel || k == KindCommit
}

// Validate reports whether a is a legal user-defined action name: non-empty
// and free of the reserved '!' character.
func Validate(a Name) error {
	if a == "" {
		return fmt.Errorf("action: empty name")
	}
	if strings.ContainsRune(string(a), '!') {
		return fmt.Errorf("action: name %q contains reserved character '!'", a)
	}
	return nil
}

// Request is the paper's Request ⊆ Action × Value (eq. 1) extended with the
// round number that §5.4 folds into an action's parameters ("a cancellation
// action issued for round number n cannot cancel the action of round number
// n+1") and with a request identifier that scopes rounds to one submitted
// request, so that two requests invoking the same action on the same input
// cannot confuse each other's rounds. Round 0 / empty ID mean "untagged",
// used for histories outside the protocol.
type Request struct {
	Action Name
	Input  Value
	ID     string
	Round  int
}

// NewRequest builds an untagged request.
func NewRequest(a Name, iv Value) Request { return Request{Action: a, Input: iv} }

// WithRound returns a copy of r with the round number set.
func (r Request) WithRound(round int) Request {
	r.Round = round
	return r
}

// WithID returns a copy of r with the request identifier set.
func (r Request) WithID(id string) Request {
	r.ID = id
	return r
}

// Cancel returns the request that invokes the cancellation action of r,
// carrying the same input, ID, and round (the paper's cancel(r)).
func (r Request) Cancel() Request {
	return Request{Action: Cancel(r.Action), Input: r.Input, ID: r.ID, Round: r.Round}
}

// Commit returns the request that invokes the commit action of r, carrying
// the same input, ID, and round (the paper's commit(r)).
func (r Request) Commit() Request {
	return Request{Action: Commit(r.Action), Input: r.Input, ID: r.ID, Round: r.Round}
}

// EffectiveInput is the input value as it appears in events: the request ID
// and round number, when set, are folded into the value so that event
// identity — and therefore pattern matching and reduction — distinguishes
// rounds of distinct requests. The encoding equals EncodeTuple(input,
// "x:"+ID+":"+round) and costs one allocation: the round is formatted on
// the stack and the value built in a Builder grown once, with no copy from
// bytes to string. It runs once per execution attempt, which makes it a
// protocol hot path.
func (r Request) EffectiveInput() Value {
	if r.Round == 0 && r.ID == "" {
		return r.Input
	}
	var digits [20]byte
	round := strconv.AppendInt(digits[:0], int64(r.Round), 10)
	var b strings.Builder
	b.Grow(len(r.Input) + len(tupleSep) + len("x:") + len(r.ID) + 1 + len(round))
	b.WriteString(string(r.Input))
	b.WriteString(tupleSep)
	b.WriteString("x:")
	b.WriteString(r.ID)
	b.WriteByte(':')
	b.Write(round)
	return Value(b.String())
}

// String renders the request in paper notation, e.g. "(debit, acct=7@r2)".
func (r Request) String() string {
	if r.Round == 0 && r.ID == "" {
		return fmt.Sprintf("(%s, %s)", r.Action, Display(r.Input))
	}
	return fmt.Sprintf("(%s, %s@%s/r%d)", r.Action, Display(r.Input), r.ID, r.Round)
}

// Result is the paper's Result ⊆ Value (eq. 2): the values a service
// returns to its client.
type Result = Value

// Display renders a Value for humans, making Nil legible.
func Display(v Value) string {
	if v == Nil {
		return "nil"
	}
	return string(v)
}

// SplitTag decomposes an effective input value produced by
// Request.EffectiveInput back into the raw input, request ID, and round.
// An untagged value decodes to (v, "", 0). The parse is allocation-free
// (substrings share the input's storage): the checker calls it per event.
func SplitTag(v Value) (base Value, id string, round int) {
	s := string(v)
	i := strings.IndexByte(s, tupleSep[0])
	if i < 0 {
		return v, "", 0
	}
	tag := s[i+1:]
	// The tag must be exactly "x:<id>:<round>" with no further tuple
	// field and no ':' inside the ID (the shape EffectiveInput emits).
	if strings.IndexByte(tag, tupleSep[0]) >= 0 || !strings.HasPrefix(tag, "x:") {
		return v, "", 0
	}
	rest := tag[2:]
	j := strings.IndexByte(rest, ':')
	if j < 0 || strings.IndexByte(rest[j+1:], ':') >= 0 {
		return v, "", 0
	}
	n, err := strconv.Atoi(rest[j+1:])
	if err != nil {
		return v, "", 0
	}
	return Value(s[:i]), rest[:j], n
}

const tupleSep = "\x1f" // ASCII unit separator: cannot occur in normal text.

// EncodeTuple packs fields into a single Value with decidable equality.
func EncodeTuple(fields ...string) Value {
	return Value(strings.Join(fields, tupleSep))
}

// DecodeTuple unpacks a Value packed by EncodeTuple. A value that was never
// packed decodes to a single field containing the whole value.
func DecodeTuple(v Value) []string {
	return strings.Split(string(v), tupleSep)
}
