// Package verify checks the x-able service specification of §4 against a
// concrete run: requirements R1–R4 for a single client submitting requests
// one at a time.
//
//	R1 — submit is idempotent: re-submissions of the same request must not
//	     duplicate side effects. Verified through R3 (the server-side
//	     history of a run with retries must still reduce to exactly-once)
//	     plus the environment's in-force effect audit.
//	R2 — submit eventually succeeds: the run log must show every submitted
//	     request eventually returning a value (the run terminated).
//	R3 — the server-side history is x-able w.r.t. the successfully
//	     submitted request sequence. Checked strictly (whole-history
//	     reduction to the sequential failure-free form) and per-request
//	     (the projection relaxation of DESIGN.md §2, which tolerates
//	     duplicate completions straggling across request boundaries).
//	R4 — every reply is a possible reply (§3.4) and is the output value of
//	     the surviving execution in the reduced history.
package verify

import (
	"fmt"
	"slices"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/reduce"
)

// Run captures everything the checker needs about one execution of a
// replicated service.
type Run struct {
	// Registry is the service's action vocabulary.
	Registry *action.Registry
	// Requests are the successfully submitted requests, in submission
	// order, with their IDs.
	Requests []action.Request
	// Replies are the values submit returned, parallel to Requests.
	Replies []action.Value
	// History is the observer's total-ordered event history.
	History event.History
	// PossibleReply implements §3.4; nil accepts every value.
	PossibleReply func(req action.Request, ov action.Value) bool
	// SubmitAttempts is the total number of submit attempts (≥ len(Requests)).
	SubmitAttempts int
	// Concurrent marks a run whose requests were submitted concurrently
	// (open-loop load): R3 then checks the per-request projection without
	// the inter-request sequencing clause — concurrent sessions are
	// unordered (§4's composition across clients) — and strict
	// whole-history reduction is not attempted (no sequential form
	// exists to reduce to).
	Concurrent bool
}

// Report is the verdict, with one flag per checkable clause.
type Report struct {
	// R2 holds when every request got a reply.
	R2 bool
	// R3Strict holds when the whole history reduces to the sequential
	// failure-free history of the request sequence.
	R3Strict bool
	// R3Projected holds under the per-request relaxation.
	R3Projected bool
	// Outputs are the surviving execution outputs per request (from the
	// projected check when strict fails).
	Outputs []action.Value
	// R4Possible holds when every reply satisfies PossibleReply.
	R4Possible bool
	// R4Consistent holds when every reply equals the surviving execution's
	// output value in the reduced history.
	R4Consistent bool
	// Details carries human-readable diagnostics for failed clauses.
	Details []string
}

// OK reports whether every checked clause holds (strict R3 excepted when
// the projected form holds — see Report.R3Strict for the strong verdict).
func (r Report) OK() bool {
	return r.R2 && r.R3Projected && r.R4Possible && r.R4Consistent
}

// Check verifies a run: it is a zero Checker's Check.
func Check(run Run) Report { return new(Checker).Check(run) }

// Checker verifies runs on scratch it reuses from one run to the next: a
// normalizer, rebuilt only when a run brings another registry, and the
// target specs. It keeps no run state between calls — each check
// overwrites all of its scratch — so a reused Checker's Report equals
// Check's. The zero value is ready to use; a Checker is not for concurrent
// use.
type Checker struct {
	reg   *action.Registry
	n     *reduce.Normalizer
	specs []reduce.TargetSpec
}

// Check verifies a run.
func (c *Checker) Check(run Run) Report {
	var rep Report
	rep.R2 = len(run.Replies) == len(run.Requests)
	if !rep.R2 {
		rep.Details = append(rep.Details, fmt.Sprintf("R2: %d requests but %d replies", len(run.Requests), len(run.Replies)))
	}

	if c.n == nil || c.reg != run.Registry {
		c.reg, c.n = run.Registry, reduce.New(run.Registry)
	}
	n := c.n

	c.specs = slices.Grow(c.specs[:0], len(run.Requests))
	specsOK := true
	for _, req := range run.Requests {
		spec, err := reduce.SpecFor(run.Registry, req)
		if err != nil {
			rep.Details = append(rep.Details, fmt.Sprintf("R3: %v", err))
			specsOK = false
			break
		}
		c.specs = append(c.specs, spec)
	}

	if specsOK {
		var strictOuts []action.Value
		if !run.Concurrent {
			rep.R3Strict, strictOuts = n.XAbleTo(run.History, c.specs)
		}
		var projOuts []action.Value
		if run.Concurrent {
			rep.R3Projected, projOuts = n.XAbleConcurrent(run.History, run.Requests)
		} else {
			rep.R3Projected, projOuts = n.XAbleProjected(run.History, run.Requests)
		}
		switch {
		case rep.R3Strict:
			rep.Outputs = strictOuts
		case rep.R3Projected:
			rep.Outputs = projOuts
			if run.Concurrent {
				rep.Details = append(rep.Details, "R3: concurrent per-request projection holds (open-loop run; no sequential form)")
			} else {
				rep.Details = append(rep.Details, "R3: strict whole-history reduction failed; per-request projection holds (straggling duplicate completions)")
			}
		default:
			rep.Details = append(rep.Details, "R3: history is not x-able for the submitted sequence")
		}
	}

	rep.R4Possible = true
	rep.R4Consistent = rep.R3Projected || rep.R3Strict
	for i, req := range run.Requests {
		if i >= len(run.Replies) {
			break
		}
		if run.PossibleReply != nil && !run.PossibleReply(req, run.Replies[i]) {
			rep.R4Possible = false
			rep.Details = append(rep.Details, fmt.Sprintf("R4: reply %q to %v is not a possible reply", action.Display(run.Replies[i]), req))
		}
		if i < len(rep.Outputs) && rep.Outputs[i] != run.Replies[i] {
			rep.R4Consistent = false
			rep.Details = append(rep.Details, fmt.Sprintf("R4: reply %q to %v differs from surviving output %q", action.Display(run.Replies[i]), req, action.Display(rep.Outputs[i])))
		}
	}
	return rep
}
