package reduce

import (
	"slices"
	"sort"

	"xability/internal/action"
	"xability/internal/event"
)

// searchCutoff is the longest history XAbleTo hands to the exhaustive
// Search when greedy normalization fails; a failing history of 9 events or
// more can already cost seconds (DefaultMaxStates states).
const searchCutoff = 14

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
	return n.xableTo(h, specs, make([]action.Value, 0, len(specs)))
}

// xableTo is XAbleTo appending the outputs to outs.
func (n *Normalizer) xableTo(h event.History, specs []TargetSpec, outs []action.Value) (bool, []action.Value) {
	saved := n.expected
	n.toward = countTargets(n.toward, specs)
	n.expected = n.toward
	n.normalize(h)
	n.expected = saved
	// Sized before it is filled: appendTo would grow it in steps.
	n.norm = n.appendTo(slices.Grow(n.norm[:0], n.size()))
	if o, ok := matchTarget(outs, n.norm, specs); ok {
		return true, o
	}
	// Greedy is incomplete in principle; fall back to the oracle on
	// histories small enough to search.
	if len(h) <= searchCutoff {
		var found []action.Value
		res := n.Search(h, func(c event.History) bool {
			o, ok := MatchTarget(c, specs)
			if ok {
				found = o
			}
			return ok
		}, 0)
		if res.Found {
			return true, append(outs, found...)
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
	n.specs = n.specs[:0]
	for _, req := range reqs {
		spec, err := SpecFor(n.reg, req)
		if err != nil {
			return false, nil
		}
		n.specs = append(n.specs, spec)
	}
	outs := make([]action.Value, 0, len(reqs))
	prevEnd := -1
	for r, p := range n.project(h, reqs) {
		var ok bool
		if ok, outs = n.xableTo(n.kept[p.lo:p.hi], n.specs[r:r+1], outs); !ok {
			return false, nil
		}
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
// history order, as the range kept[lo:hi] of the projection scratch, and
// the index in the history of the first completion of its own action among
// them (-1: none).
type projection struct {
	lo, hi              int
	firstKeptCompletion int
}

// projector is the Normalizer's projection scratch, reused from one history
// to the next: project overwrites all of it.
type projector struct {
	ix   keeperIndex
	ones []int // the one-element keeper lists, carved
	// pairs are the (request, event) pairs the walk finds, in history
	// order; kept holds their events laid out by request.
	pairs []keptPair
	kept  event.History
	// The unmatched starts of an action are a stack: tops holds each
	// action's newest, below links every start to the next older one.
	below  []int32
	tops   []openTop
	inline [8]openTop // tops' first backing array: action names are few
	projs  []projection
	specs  []TargetSpec
}

type keptPair struct{ req, at int32 }

// openTop is the newest unmatched start of an action (-1: none).
type openTop struct {
	action action.Name
	top    int32
}

// topOf returns where the newest unmatched start of action a is kept.
func (p *projector) topOf(a action.Name) *int32 {
	for i := range p.tops {
		if p.tops[i].action == a {
			return &p.tops[i].top
		}
	}
	p.tops = append(p.tops, openTop{action: a, top: -1})
	return &p.tops[len(p.tops)-1].top
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
// the matching is done once and every event goes to exactly the requests
// that keep it: O(|h| + Σ|projection|), where a scan per request costs
// O(requests × |h|). The projections are laid out by request in one
// buffer, so on a warm scratch only a key that several requests share
// allocates (its keeper list).
func (n *Normalizer) project(h event.History, reqs []action.Request) []projection {
	p := &n.projector
	if p.ix == nil {
		p.ix = make(keeperIndex, 2*len(reqs))
		p.tops = p.inline[:0]
	}
	// Nearly every key has one request, so the one-element lists are
	// carved out of a single array (capacity one: a second request under
	// the same key appends into storage of its own).
	clear(p.ix)
	p.ones = slices.Grow(p.ones[:0], 2*len(reqs))
	for r, req := range reqs {
		keys := []keeperKey{{action: req.Action, input: req.Input}, {action: req.Action, id: req.ID}}
		if req.ID == "" {
			keys = keys[:1]
		}
		for _, k := range keys {
			if l, ok := p.ix[k]; ok {
				p.ix[k] = append(l, r)
				continue
			}
			p.ones = append(p.ones, r)
			p.ix[k] = p.ones[len(p.ones)-1 : len(p.ones) : len(p.ones)]
		}
	}

	p.projs = slices.Grow(p.projs[:0], len(reqs))[:len(reqs)]
	for r := range p.projs {
		p.projs[r] = projection{firstKeptCompletion: -1}
	}
	// Most events have one keeper.
	p.pairs, p.tops = slices.Grow(p.pairs[:0], len(h)), p.tops[:0]
	p.below = slices.Grow(p.below[:0], len(h))[:len(h)]
	for i, e := range h {
		var own, derived []int
		switch e.Type {
		case event.Start:
			own, derived = p.ix.of(e.Action, e.Value)
			top := p.topOf(e.Action)
			p.below[i], *top = *top, int32(i)
		case event.Complete:
			top := p.topOf(e.Action)
			if e.Annotation != "" {
				own, derived = p.ix.of(e.Action, action.Value(e.Annotation))
				// Unlink the matching start so heuristic attribution of
				// any unannotated completions stays coherent.
				for at := top; *at >= 0; at = &p.below[*at] {
					if h[*at].Value == action.Value(e.Annotation) {
						*at = p.below[*at]
						break
					}
				}
			} else if s := *top; s >= 0 {
				*top = p.below[s]
				own, derived = p.ix.of(e.Action, h[s].Value)
			}
		}
		for _, keepers := range [...][]int{own, derived} {
			for _, r := range keepers {
				p.pairs = append(p.pairs, keptPair{int32(r), int32(i)})
				q := &p.projs[r]
				q.hi++ // counts the request's events until the layout below
				if e.Type == event.Complete && e.Action == reqs[r].Action && q.firstKeptCompletion < 0 {
					q.firstKeptCompletion = i
				}
			}
		}
	}

	// Request r's events go to kept[lo:hi], in history order.
	lo := 0
	for r := range p.projs {
		q := &p.projs[r]
		q.lo, q.hi, lo = lo, lo, lo+q.hi
	}
	p.kept = slices.Grow(p.kept[:0], len(p.pairs))[:len(p.pairs)]
	for _, k := range p.pairs {
		q := &p.projs[k.req]
		p.kept[q.hi] = h[k.at]
		q.hi++
	}
	return p.projs
}
