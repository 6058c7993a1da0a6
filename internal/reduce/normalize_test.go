package reduce

import (
	"fmt"
	"testing"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/xrand"
)

// sameHistory compares two histories event by event, annotations included
// (History.Equal is formal equality and ignores them; the replay lifting
// binds by annotation, so a normal form that lost one is a different normal
// form).
func sameHistory(got, want event.History) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("event %d is %v, want %v\n got: %v\nwant: %v", i, got[i], want[i], got, want)
		}
	}
	return nil
}

// normalizeAgrees holds Normalize to the reference strategy on h, towards
// whatever target n has: the same normal form, and the same rewrites in the
// same order — every TraceStep's rule, description, before and after, read
// after the whole normalization so that a later in-place pass that wrote
// into a recorded step shows. The untraced run must reach the traced one's
// normal form and h must come back untouched. It returns the number of
// rewrites compared.
func normalizeAgrees(n *Normalizer, h event.History) (rewrites int, err error) {
	arg := h.Clone()
	var wantTrace, gotTrace []TraceStep
	want := n.normalizeRef(h, &wantTrace)

	saved := n.Trace
	n.Trace = &gotTrace
	got := n.Normalize(h)
	n.Trace = nil
	plain := n.Normalize(h)
	n.Trace = saved

	if err := sameHistory(h, arg); err != nil {
		return 0, fmt.Errorf("the argument was modified: %v", err)
	}
	for i := 0; i < len(gotTrace) && i < len(wantTrace); i++ {
		g, w := gotTrace[i], wantTrace[i]
		if g.Rule != w.Rule || g.Desc != w.Desc {
			return 0, fmt.Errorf("rewrite %d is %v: %s, the reference makes %v: %s\nbefore: %v", i, g.Rule, g.Desc, w.Rule, w.Desc, w.Before)
		}
		if err := sameHistory(g.Before, w.Before); err != nil {
			return 0, fmt.Errorf("rewrite %d (%s) starts from another history: %v", i, g.Desc, err)
		}
		if err := sameHistory(g.After, w.After); err != nil {
			return 0, fmt.Errorf("rewrite %d (%s) of %v: %v", i, g.Desc, w.Before, err)
		}
	}
	if len(gotTrace) != len(wantTrace) {
		return 0, fmt.Errorf("%d rewrites, the reference makes %d", len(gotTrace), len(wantTrace))
	}
	if err := sameHistory(got, want); err != nil {
		return 0, fmt.Errorf("normal form: %v", err)
	}
	if err := sameHistory(plain, got); err != nil {
		return 0, fmt.Errorf("untraced normal form differs from the traced one: %v", err)
	}
	return len(wantTrace), nil
}

// specsOf builds the reduction target of the requests the registry knows.
func specsOf(reg *action.Registry, reqs []action.Request) []TargetSpec {
	var specs []TargetSpec
	for _, req := range reqs {
		if spec, err := SpecFor(reg, req); err == nil {
			specs = append(specs, spec)
		}
	}
	return specs
}

// NormalizeAgreesOn is the fuzz target's body (exported for the external
// test package, which owns the corpus): normalizeAgrees on the whole of h,
// towards the requests and towards nothing, and on each request's
// projection as XAbleTo meets it; and, when h is small enough for the
// exhaustive search to be an oracle, the greedy verdict against the
// search's.
func NormalizeAgreesOn(reg *action.Registry, h event.History, reqs []action.Request) error {
	n := New(reg)
	if _, err := normalizeAgrees(n, h); err != nil {
		return fmt.Errorf("whole history, no target: %w", err)
	}
	specs := specsOf(reg, reqs)
	if _, err := normalizeAgrees(n.Toward(specs), h); err != nil {
		return fmt.Errorf("whole history towards the requests: %w", err)
	}
	for r, p := range project(h, reqs) {
		if _, err := normalizeAgrees(n.Toward(specsOf(reg, reqs[r:r+1])), p.events); err != nil {
			return fmt.Errorf("projection onto request %d %v: %w", r, reqs[r], err)
		}
	}
	if len(h) > 8 || len(specs) != len(reqs) {
		return nil
	}
	accept := func(c event.History) bool {
		_, ok := MatchTarget(c, specs)
		return ok
	}
	greedy := accept(n.Toward(specs).Normalize(h))
	if res := n.Search(h, accept, 0); (res.Found || res.Exhausted) && res.Found != greedy {
		return fmt.Errorf("greedy says x-able=%v, the exhaustive search %v (witness %v)\nrequests: %v\nhistory: %v", greedy, res.Found, res.Witness, reqs, h)
	}
	return nil
}

// TestNormalizeAgreesWithReference is the differential of the sweeps
// against the restart-from-zero strategy they replaced, over whole
// multi-request histories — ordered and interleaved, clean and damaged —
// and the small protocol-shaped ones, with and without a target, through
// one Normalizer (so that scratch left by one history would show in the
// next). The order of rewrites is part of the contract: the one sweep that
// must sometimes go back to zero (dedup, after passing an over-represented
// group it could not absorb) does so on a fraction of a percent of these
// cases, and without it the first disagreement is tens of thousands of
// cases in — hence the size, and the check that the path was taken at all.
func TestNormalizeAgreesWithReference(t *testing.T) {
	cases := 100_000
	if testing.Short() {
		cases = 10_000
	}
	reg := testRegistry(t)
	n := New(reg)
	rng := xrand.New(19)
	rewrites, restarted := 0, 0
	for i := 0; i < cases; i++ {
		var hist event.History
		var specs []TargetSpec
		if i%4 == 3 {
			hist, specs = randomProtocolishHistory(rng, reg)
		} else {
			pc := randomProjectionCase(rng, 1+rng.Intn(10), rng.Intn(2) == 0, rng.Intn(3) == 0)
			hist, specs = pc.h, specsOf(reg, pc.reqs)
		}
		n.expected = nil
		if rng.Intn(2) == 0 {
			n.Toward(specs)
		}
		before := n.restarts
		made, err := normalizeAgrees(n, hist)
		if err != nil {
			t.Fatalf("case %d: %v\nhistory: %v", i, err, hist)
		}
		rewrites += made
		if n.restarts > before {
			restarted++
		}
	}
	t.Logf("%d histories, %d rewrites; %d went back to zero after a stuck group", cases, rewrites, restarted)
	if restarted == 0 {
		t.Error("no case took the restart-on-stuck path; the generator no longer reaches it")
	}
}
