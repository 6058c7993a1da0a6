// Package workload generates the request sequences, action mixes and
// open-loop arrival schedules the experiment harness (cmd/xbench) and the
// scenario registry drive the protocols with, over the shared Bank.
// Faults are scenario.Plan's business.
//
// All generation is seeded: a (Spec, seed) pair always produces the same
// workload, so experiment rows are reproducible.
package workload

import (
	"fmt"

	"xability/internal/action"
	"xability/internal/xrand"
)

// Mix describes the action mix of a workload as weights; weights need not
// sum to anything in particular.
type Mix struct {
	// Reads weights the idempotent deterministic action ("read").
	Reads int
	// Tokens weights the idempotent non-deterministic action ("token").
	Tokens int
	// Debits weights the undoable action ("debit").
	Debits int
}

// DefaultMix is a balanced three-way mix.
var DefaultMix = Mix{Reads: 1, Tokens: 1, Debits: 1}

// Spec describes a workload.
type Spec struct {
	// Requests is the number of requests in the sequence.
	Requests int
	// Mix is the action mix.
	Mix Mix
	// Accounts is the key space size for inputs.
	Accounts int
}

// Generate produces the request sequence for a spec.
func Generate(spec Spec, seed int64) []action.Request {
	rng := xrand.New(seed)
	if spec.Requests <= 0 {
		spec.Requests = 10
	}
	if spec.Accounts <= 0 {
		spec.Accounts = 4
	}
	total := spec.Mix.Reads + spec.Mix.Tokens + spec.Mix.Debits
	if total == 0 {
		spec.Mix = DefaultMix
		total = 3
	}
	out := make([]action.Request, 0, spec.Requests)
	for i := 0; i < spec.Requests; i++ {
		acct := action.Value(fmt.Sprintf("acct-%d", rng.Intn(spec.Accounts)))
		pick := rng.Intn(total)
		switch {
		case pick < spec.Mix.Reads:
			out = append(out, action.NewRequest("read", acct))
		case pick < spec.Mix.Reads+spec.Mix.Tokens:
			out = append(out, action.NewRequest("token", acct))
		default:
			out = append(out, action.NewRequest("debit", acct))
		}
	}
	return out
}

// Registry returns the standard benchmark vocabulary: idempotent read and
// token, undoable debit.
func Registry() *action.Registry {
	reg := action.NewRegistry()
	reg.MustRegister("read", action.KindIdempotent)
	reg.MustRegister("token", action.KindIdempotent)
	reg.MustRegister("debit", action.KindUndoable)
	return reg
}
