package reduce

import (
	"testing"

	"xability/internal/action"
	"xability/internal/event"
)

// Regression tests for the §5.2 replay lifting: a replica that crashes after
// completing a round's tagged execution and recovers re-invokes the same
// transaction; the environment replays the recorded result, emitting a
// second identical execution pair. These histories are what the restart
// plane emits; they must reduce — and the shapes the lifting must NOT cover
// (untagged duplicates, cross-tag theft) must stay irreducible.

// annotate stamps a completion with its attribution annotation the way the
// environment does (the tagged input the completion resolved).
func annotate(c event.Event, req action.Request) event.Event {
	return c.WithAnnotation(string(req.EffectiveInput()))
}

func TestReplayDuplicatePairCollapses(t *testing.T) {
	// Crash between execute and coordinate; recovery re-executes the same
	// tag, the env replays, then the round commits.
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a").WithID("q")
	r1 := base.WithRound(1)

	s1, c1 := undoableEvents(r1, "v")
	ms1, mc1 := commitPair(r1)
	hist := h(s1, annotate(c1, r1), s1, annotate(c1, r1), ms1, mc1)
	spec, _ := SpecFor(reg, base)
	ok, outs := n.XAbleTo(hist, []TargetSpec{spec})
	if !ok || outs[0] != "v" {
		t.Fatalf("replayed execution pair must collapse; got (%v, %v)\nnormal form: %v",
			ok, outs, n.Normalize(hist))
	}
}

func TestReplayDanglingStartAbsorbs(t *testing.T) {
	// Crash mid-execution (start only), recovery completes the same tag.
	// The env applied the effect at most once across both invocations.
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a").WithID("q")
	r1 := base.WithRound(1)

	s1, c1 := undoableEvents(r1, "v")
	ms1, mc1 := commitPair(r1)
	hist := h(s1, s1, annotate(c1, r1), ms1, mc1)
	spec, _ := SpecFor(reg, base)
	if ok, _ := n.XAbleTo(hist, []TargetSpec{spec}); !ok {
		t.Fatalf("dangling start before a same-tag replay must absorb; normal form: %v",
			n.Normalize(hist))
	}
}

func TestReplayUntaggedDuplicateStaysIrreducible(t *testing.T) {
	// Baseline executors run undoable actions raw, outside any transaction:
	// no tag, no at-most-once guarantee. A duplicated execution is a real
	// exactly-once violation and no step may collapse it.
	reg := testRegistry(t)
	hist := h(
		event.S("debit", "a"), event.C("debit", "v"),
		event.S("debit", "a"), event.C("debit", "v"),
	)
	for _, s := range Steps(reg, hist) {
		if len(s.Result) < len(hist) {
			t.Fatalf("untagged undoable duplicate must not reduce: %v -> %v", hist, s.Result)
		}
	}
	n := New(reg)
	if norm := n.Normalize(hist); !norm.Equal(hist) {
		t.Fatalf("greedy collapsed an untagged undoable duplicate: %v -> %v", hist, norm)
	}
}

func TestReplayDoesNotStealSiblingRoundCompletion(t *testing.T) {
	// Round 1: dangling start, cleaner cancel, recovered owner re-executes
	// and completes, abort decided, cancelled. Round 2 commits with the SAME
	// output value. The round-1 duplicate must reduce via rule 19 — the
	// replay lifting must not bind round 2's completion (annotated with
	// round 2's tag) to round 1's starts, which would strand round 2's
	// start event and dead-end the greedy reduction.
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a").WithID("q")
	r1, r2 := base.WithRound(1), base.WithRound(2)

	s1, c1 := undoableEvents(r1, "v")
	cs1, cc1 := cancelPair(r1)
	s2, c2 := undoableEvents(r2, "v")
	ms2, mc2 := commitPair(r2)

	hist := h(
		s1, cs1, cc1, // crashed attempt, cleaner cancels
		s1, annotate(c1, r1), cs1, cc1, // recovery replays, abort, cancel
		s2, annotate(c2, r2), ms2, mc2, // round 2 commits
	)
	spec, _ := SpecFor(reg, base)
	ok, outs := n.XAbleTo(hist, []TargetSpec{spec})
	if !ok || outs[0] != "v" {
		t.Fatalf("round-1 replay plus committed round 2 must reduce to round 2; got (%v, %v)\nnormal form: %v",
			ok, outs, n.Normalize(hist))
	}
}

func TestReplayCrossTagPairDoesNotCollapse(t *testing.T) {
	// Two different rounds each complete once with the same output; no round
	// is duplicated. The lifting must not treat them as one attempt/success
	// pair: their tags differ, so neither start anchors a duplicate group.
	reg := testRegistry(t)
	base := action.NewRequest("debit", "a").WithID("q")
	r1, r2 := base.WithRound(1), base.WithRound(2)

	s1, c1 := undoableEvents(r1, "v")
	s2, c2 := undoableEvents(r2, "v")
	ms2, mc2 := commitPair(r2)
	hist := h(s1, annotate(c1, r1), s2, annotate(c2, r2), ms2, mc2)
	for _, s := range Steps(reg, hist) {
		if !s.Result.Contains("debit", r1.EffectiveInput()) || !s.Result.Contains("debit", r2.EffectiveInput()) {
			t.Fatalf("a step dropped a distinct round's execution: %v -> %v", hist, s.Result)
		}
	}
}

func TestReplayStepsBindByTag(t *testing.T) {
	// The lifting admits a match only if its ?-part is not Λ and both of
	// its completions bind to the start's tag. Each history below has a
	// step that breaks exactly one of the three, and Steps must leave it
	// out.
	reg := testRegistry(t)
	base := action.NewRequest("debit", "a").WithID("q")
	r1, r2 := base.WithRound(1), base.WithRound(2)
	s1, c1 := undoableEvents(r1, "v")
	s2, c2 := undoableEvents(r2, "v")
	c1, c2 = annotate(c1, r1), annotate(c2, r2)
	for _, tc := range []struct {
		name string
		hist event.History
		want []event.History
	}{
		// Λ ?-part: one tagged execution around a read is not compacted,
		// which would move the debit's start past the read.
		{"no compaction", h(s1, event.S("read", "k"), c1), nil},
		// Attempt completion: round 1's dangling start absorbs into its
		// replay, but not together with round 2's completion, which would
		// strand round 2's start.
		{"attempt binds", h(s1, s2, c2, s1, c1), []event.History{h(s2, c2, s1, c1)}},
		// Success completion: round 1's two starts do not absorb into
		// round 2's completion.
		{"success binds", h(s1, s1, s2, c2), nil},
	} {
		if got, want := stepKeys(Steps(reg, tc.hist)), stepKeys(stepsTo(tc.want...)); got != want {
			t.Errorf("%s: steps of %v\n%s\nwant\n%s", tc.name, tc.hist, got, want)
		}
	}
}
