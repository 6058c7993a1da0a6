package reduce

import (
	"sort"

	"xability/internal/action"
	"xability/internal/event"
)

// XAbleTo implements the sequence form of the x-able predicate used by
// requirement R3 (§4): it reports whether h reduces under ⇒ to a
// failure-free history of the request sequence described by specs. On
// success it also returns the output value of each request's surviving
// execution.
//
// The decision uses the greedy Normalizer; for small histories where greedy
// normalization fails, the exhaustive engine is consulted before declaring
// the history not x-able, so the combined answer is exact whenever the
// search completes within budget.
func (n *Normalizer) XAbleTo(h event.History, specs []TargetSpec) (bool, []action.Value) {
	saved := n.expected
	n.toward = countTargets(n.toward, specs)
	n.expected = n.toward
	norm := n.Normalize(h)
	n.expected = saved
	if outs, ok := MatchTarget(norm, specs); ok {
		return true, outs
	}
	// Greedy is incomplete in principle; fall back to the oracle on
	// histories small enough to search.
	if len(h) <= 14 {
		var outs []action.Value
		res := n.Search(h, func(c event.History) bool {
			o, ok := MatchTarget(c, specs)
			if ok {
				outs = o
			}
			return ok
		}, 0)
		if res.Found {
			return true, outs
		}
	}
	return false, nil
}

// XAble implements the single-action x-able predicate of eq. 23:
// x-able(a,iv)(h) holds iff h reduces to some member of FailureFree(a,iv).
// On success it returns the output value of the surviving execution.
func (n *Normalizer) XAble(h event.History, req action.Request) (bool, action.Value) {
	spec, err := SpecFor(n.reg, req)
	if err != nil {
		return false, ""
	}
	ok, outs := n.XAbleTo(h, []TargetSpec{spec})
	if !ok {
		return false, ""
	}
	return true, outs[0]
}

// Signature implements the history signature of §3.3 (eqs. 24–25): the set
// of output values ov such that (a, iv, ov) ∈ signature(h), i.e. such that h
// reduces to the complete failure-free history of the request with output
// ov. Because of non-determinism and retry, a history can have several
// signatures; the result is sorted for determinism.
func (n *Normalizer) Signature(h event.History, req action.Request) []action.Value {
	spec, err := SpecFor(n.reg, req)
	if err != nil {
		return nil
	}
	// Candidate outputs are the completion values of the action in h.
	seen := make(map[action.Value]bool)
	var out []action.Value
	for _, e := range h {
		if e.Type != event.Complete || e.Action != req.Action || seen[e.Value] {
			continue
		}
		seen[e.Value] = true
		if ok, _ := n.XAbleTo(h, []TargetSpec{spec.WithOutput(e.Value)}); ok {
			out = append(out, e.Value)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// XAbleProjected is the per-request relaxation of R3 used for multi-request
// runs (see DESIGN.md): it projects h onto each request's action events
// (base action plus its cancel and commit actions) and requires every
// projection to reduce to that request's failure-free history. Cross-request
// interleavings — in particular completion events of duplicate executions
// that straggle past the next request's events, which no rule of Figure 4
// can reorder across an interleaved pair — are thereby treated as benign.
// Reduction steps on a projection lift to reduction steps on the full
// history (window anchors and junk constraints only mention same-action
// events), so each projection's verdict is a sound per-request exactly-once
// statement.
//
// It also checks sequencing: the surviving execution of request i must
// start only after the surviving execution of request i-1 completed, which
// is the observable residue of "the state resulting from R1 is used as a
// context for executing R2" (§4).
func (n *Normalizer) XAbleProjected(h event.History, reqs []action.Request) (bool, []action.Value) {
	return n.xableProjected(h, reqs, true)
}

// XAbleConcurrent is the projection relaxation for concurrently submitted
// requests: each request's projected events must still reduce to its
// sequential failure-free form (exactly-once per request), but no
// inter-request sequencing is required. This is the right obligation for
// open-loop load, where every request is its own single-request client
// session — §4's composition across clients leaves concurrent sessions
// unordered, so "R1's state is the context of R2" never applies between
// them. Requests must carry IDs (open-loop stations always tag), since
// identity is what attributes events when inputs collide across clients.
func (n *Normalizer) XAbleConcurrent(h event.History, reqs []action.Request) (bool, []action.Value) {
	return n.xableProjected(h, reqs, false)
}

func (n *Normalizer) xableProjected(h event.History, reqs []action.Request, sequenced bool) (bool, []action.Value) {
	specs := make([]TargetSpec, len(reqs))
	for r, req := range reqs {
		spec, err := SpecFor(n.reg, req)
		if err != nil {
			return false, nil
		}
		specs[r] = spec
	}
	outs := make([]action.Value, 0, len(reqs))
	prevEnd := -1
	for r, p := range project(h, reqs) {
		ok, o := n.XAbleTo(p.events, specs[r:r+1])
		if !ok {
			return false, nil
		}
		outs = append(outs, o[0])
		// Sequencing: this request's first completion must come after the
		// previous request's first completion — the observable residue of
		// R1's state being the execution context of R2 (§4). Concurrent
		// sessions (XAbleConcurrent) skip this: they are unordered.
		if sequenced && p.firstKeptCompletion >= 0 && p.firstKeptCompletion < prevEnd {
			return false, nil
		}
		if p.firstKeptCompletion >= 0 {
			prevEnd = p.firstKeptCompletion
		}
	}
	return true, outs
}

// projection is one request's share of a history: the events it keeps, in
// history order, and the index in the history of the first completion of
// its own action among them (-1: none).
type projection struct {
	events              event.History
	firstKeptCompletion int
}

// keeperIndex finds the requests that keep an event. A request keeps the
// events of its action and of that action's cancel and commit names whose
// value carries its ID or, untagged, equals its input; so requests are
// filed under their own action name, once by ID and once by input, and an
// event is looked up under its name and under the name it derives from.
type keeperIndex map[keeperKey][]int

type keeperKey struct {
	action action.Name
	id     string       // of a tagged value, else ""
	input  action.Value // of an untagged value
}

// of returns the indexes of the requests that keep an event named name
// with value v: those whose action is name itself and, for a cancel or
// commit name, those whose action it derives from. No request is in both.
func (ix keeperIndex) of(name action.Name, v action.Value) (own, derived []int) {
	k := keeperKey{action: name}
	if base, id, _ := action.SplitTag(v); id != "" {
		k.id = id
	} else {
		k.input = base
	}
	own = ix[k]
	if base, _ := action.Base(name); base != name {
		k.action = base
		derived = ix[k]
	}
	return own, derived
}

// project walks h once for all requests. A completion's value is the
// output, which does not identify the invocation, so attribution uses the
// environment's annotation when present (the env stamps every completion
// with the tagged input it resolved — exact attribution even when
// executors on different replicas interleave). Unannotated completions —
// synthetic histories — fall back to the nearest preceding unmatched start
// of the same action, and are kept by whoever keeps that start. Which
// start a completion matches depends on h alone, never on the request, so
// the matching is done once and every event is appended to the projections
// of exactly the requests that keep it: O(|h| + Σ|projection|), where a
// scan per request costs O(requests × |h|).
func project(h event.History, reqs []action.Request) []projection {
	// Nearly every key has one request, so the one-element lists are
	// carved out of a single array (capacity one: a second request under
	// the same key appends into storage of its own).
	ix := make(keeperIndex, 2*len(reqs))
	ones := make([]int, 0, 2*len(reqs))
	for r, req := range reqs {
		keys := []keeperKey{{action: req.Action, input: req.Input}, {action: req.Action, id: req.ID}}
		if req.ID == "" {
			keys = keys[:1]
		}
		for _, k := range keys {
			if l, ok := ix[k]; ok {
				ix[k] = append(l, r)
				continue
			}
			ones = append(ones, r)
			ix[k] = ones[len(ones)-1 : len(ones) : len(ones)]
		}
	}

	projs := make([]projection, len(reqs))
	for r := range projs {
		projs[r].firstKeptCompletion = -1
	}
	openByAction := make(map[action.Name][]int) // unmatched start indexes
	for i, e := range h {
		var own, derived []int
		switch e.Type {
		case event.Start:
			own, derived = ix.of(e.Action, e.Value)
			openByAction[e.Action] = append(openByAction[e.Action], i)
		case event.Complete:
			open := openByAction[e.Action]
			if e.Annotation != "" {
				own, derived = ix.of(e.Action, action.Value(e.Annotation))
				// Unwind the matching start so heuristic attribution
				// of any unannotated completions stays coherent.
				for j := len(open) - 1; j >= 0; j-- {
					if h[open[j]].Value == action.Value(e.Annotation) {
						openByAction[e.Action] = append(open[:j], open[j+1:]...)
						break
					}
				}
			} else if len(open) > 0 {
				s := open[len(open)-1]
				openByAction[e.Action] = open[:len(open)-1]
				own, derived = ix.of(e.Action, h[s].Value)
			}
		}
		for _, keepers := range [...][]int{own, derived} {
			for _, r := range keepers {
				p := &projs[r]
				p.events = append(p.events, e)
				if e.Type == event.Complete && e.Action == reqs[r].Action && p.firstKeptCompletion < 0 {
					p.firstKeptCompletion = i
				}
			}
		}
	}
	return projs
}
