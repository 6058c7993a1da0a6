// Package consensus provides the consensus objects of §5.2 [Her91]: a
// propose() primitive that takes a proposed value and returns the single
// decided value, and a read() primitive that returns the decided value, if
// any, or ⊥.
//
// The paper assumes these objects exist and does not discuss their
// implementation. This package provides both the assumed abstraction and a
// real implementation:
//
//   - Local: a linearizable, wait-free, first-proposal-wins object in shared
//     memory — the abstraction exactly as assumed. A LocalProvider hands out
//     Local objects keyed by instance name; the protocol's consensus arrays
//     (owner-agreement, result-agreement, outcome-agreement) are key spaces
//     over one provider.
//   - Protocol (ct.go): an asynchronous message-passing consensus in the
//     style of Chandra–Toueg's ◇S rotating-coordinator algorithm [CT96],
//     running over simnet with majority quorums, tolerating f < n/2 crashes
//     and arbitrary false suspicion. Each replica owns a Node; Nodes expose
//     the same Object interface per instance key.
//
// Values flowing through consensus are ordinary Go values (the network is
// in-memory); they must be treated as immutable once proposed. So must a
// Protocol message once sent: it travels by pointer into its sender's
// message slab, every receiver reads the one copy, and its slot is never
// written again.
package consensus

import (
	"cmp"
	"fmt"
	"strings"
)

// Space partitions the instance key space. The protocol's three consensus
// arrays are spaces over one provider; SpaceApp is free-form (tests,
// benchmarks, applications embedding the substrate directly).
type Space uint8

const (
	// SpaceApp holds free-form instances keyed by ID alone.
	SpaceApp Space = iota
	// SpaceOwner is the protocol's owner-agreement array.
	SpaceOwner
	// SpaceResult is the protocol's result-agreement array.
	SpaceResult
	// SpaceOutcome is the protocol's outcome-agreement array.
	SpaceOutcome
)

func (s Space) String() string {
	switch s {
	case SpaceOwner:
		return "owner"
	case SpaceResult:
		return "result"
	case SpaceOutcome:
		return "outcome"
	default:
		return "app"
	}
}

// Key identifies one consensus instance. It is a comparable value — the
// protocol's hot paths build keys by struct literal ({space, request,
// round}) instead of formatting strings, so keying an instance costs no
// allocation and map lookups hash a fixed shape. At returns the key for a
// free-form ID.
type Key struct {
	Space Space
	ID    string
	Round int32
}

// At returns a free-form (SpaceApp) key, the idiom for tests and embedders.
func At(id string) Key { return Key{ID: id} }

// String renders the key for logs and debug output.
func (k Key) String() string {
	if k.Space == SpaceApp && k.Round == 0 {
		return k.ID
	}
	return fmt.Sprintf("%s/%s/%d", k.Space, k.ID, k.Round)
}

// Object is one consensus instance.
type Object interface {
	// Propose submits v and returns the decided value: v itself if this
	// proposal was first, the earlier decision otherwise. Propose blocks
	// until a decision is available.
	Propose(v any) any
	// Read returns the decided value, or ok=false if no value has been
	// decided yet (the paper's ⊥).
	Read() (any, bool)
}

// Provider hands out consensus objects by instance key. Calling Object with
// the same key returns (a handle on) the same instance.
type Provider interface {
	Object(key Key) Object
}

// chunkLen is how many objects one allocation carves out: Local objects
// for a LocalProvider, message slots for a Node's slab.
const chunkLen = 8

// compare orders keys by (space, id, round) — a total order for
// deterministic renders of key sets.
func (k Key) compare(o Key) int {
	if c := cmp.Compare(k.Space, o.Space); c != 0 {
		return c
	}
	if c := strings.Compare(k.ID, o.ID); c != 0 {
		return c
	}
	return cmp.Compare(k.Round, o.Round)
}
