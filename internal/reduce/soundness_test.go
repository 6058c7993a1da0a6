package reduce

import (
	"strings"
	"testing"
	"testing/quick"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/xrand"
)

// TestGreedyStepsAreLegalRuleInstances is the soundness proof-by-testing
// for the greedy engine: every rewrite Normalize performs must be
// reachable as a single step of the faithful rule enumeration (Steps),
// i.e. greedy ⊆ ⇒. Together with TestGreedyAgreesWithSearch
// (completeness on the target class) this pins the greedy engine to the
// formal relation.
func TestGreedyStepsAreLegalRuleInstances(t *testing.T) {
	reg := testRegistry(t)
	rng := xrand.New(99)
	checked := 0
	for trial := 0; trial < 300; trial++ {
		hist, _ := randomProtocolishHistory(rng, reg)
		if len(hist) > 12 {
			continue
		}
		n := New(reg)
		var trace []TraceStep
		n.Trace = &trace
		n.Normalize(hist)
		for _, step := range trace {
			legal := Steps(reg, step.Before)
			found := false
			want := step.After.Key()
			for _, s := range legal {
				if s.Result.Key() == want {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("greedy performed an illegal rewrite (%v: %s)\nbefore: %v\nafter:  %v",
					step.Rule, step.Desc, step.Before, step.After)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no rewrites exercised")
	}
	t.Logf("validated %d greedy rewrites against the rule enumeration", checked)
}

// TestNormalizePropertyNeverGrows: reduction shrinks or preserves history
// length on arbitrary protocol-ish inputs.
func TestNormalizePropertyNeverGrows(t *testing.T) {
	reg := testRegistry(t)
	rng := xrand.New(5)
	f := func(seed int64) bool {
		_ = seed
		hist, _ := randomProtocolishHistory(rng, reg)
		n := New(reg)
		return len(n.Normalize(hist)) <= len(hist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNormalizePropertyIdempotent: Normalize is a closure operator on the
// generated class.
func TestNormalizePropertyIdempotent(t *testing.T) {
	reg := testRegistry(t)
	rng := xrand.New(6)
	for trial := 0; trial < 200; trial++ {
		hist, _ := randomProtocolishHistory(rng, reg)
		n := New(reg)
		once := n.Normalize(hist)
		twice := n.Normalize(once)
		if !once.Equal(twice) {
			t.Fatalf("not idempotent:\n h    =%v\n once =%v\n twice=%v", hist, once, twice)
		}
	}
}

// TestNormalizePreservesUndoableEventOrder: no rule moves events of
// undoable actions, so their relative order must survive normalization.
func TestNormalizePreservesUndoableEventOrder(t *testing.T) {
	reg := testRegistry(t)
	base := action.NewRequest("debit", "a").WithID("q").WithRound(1)
	s, c := undoableEvents(base, "v")
	hist := h(
		s,
		event.S("read", "k"),
		c,
		event.C("read", "rv"),
	)
	n := New(reg)
	norm := n.Normalize(hist)
	// The undoable pair must still be in order S…C; the read pair has been
	// compacted somewhere, but cannot have crossed outside its legal
	// window.
	si, ci := -1, -1
	for i, e := range norm {
		if e.Action == "debit" {
			if e.Type == event.Start {
				si = i
			} else {
				ci = i
			}
		}
	}
	if si < 0 || ci < 0 || si > ci {
		t.Fatalf("undoable pair disturbed: %v", norm)
	}
}

// TestStepsEnumerationShapes sanity-checks the step enumerator itself on
// hand-built histories with known step counts.
func TestStepsEnumerationShapes(t *testing.T) {
	reg := testRegistry(t)

	// A single pair admits only Λ-form rewrites (compaction no-ops are
	// deduped by result, and the adjacent pair compacts to itself — which
	// re-emits the same history and is filtered by the result dedup only
	// if identical; window start 0 gives the identical result).
	single := h(event.S("read", "k"), event.C("read", "v"))
	for _, s := range Steps(reg, single) {
		if len(s.Result) != len(single) {
			t.Errorf("single pair should not shrink: %v -> %v", single, s.Result)
		}
	}

	// A dangling start plus a pair: at least one step must remove the
	// dangler.
	dangler := h(event.S("read", "k"), event.S("read", "k"), event.C("read", "v"))
	found := false
	for _, s := range Steps(reg, dangler) {
		if len(s.Result) == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("no step absorbs the dangling start: %v", Steps(reg, dangler))
	}

	// Cancelled attempt: rule 19 must appear.
	base := action.NewRequest("debit", "a").WithID("q").WithRound(1)
	s1, c1 := undoableEvents(base, "v")
	cs, cc := cancelPair(base)
	cancelled := h(s1, c1, cs, cc)
	foundR19 := false
	for _, s := range Steps(reg, cancelled) {
		if s.Rule == Rule19 && len(s.Result) == 0 {
			foundR19 = true
		}
	}
	if !foundR19 {
		t.Error("rule 19 step missing for a cancelled attempt")
	}

	// Commit overlap constraint (rule 20's (aᵘ,iv) ∉ h′): the second
	// commit compacts over the read, but the first commit's junk holds
	// S(debit) in every match, so no step absorbs it or moves its start
	// past the debit's.
	ms, mc := commitPair(base)
	jr := event.S("read", "k")
	overlapped := h(ms, s1, mc, ms, jr, mc)
	if got, want := stepKeys(Steps(reg, overlapped)), stepKeys(stepsTo(h(ms, s1, mc, jr, ms, mc))); got != want {
		t.Errorf("commit over an overlapping start: steps\n%s\nwant\n%s", got, want)
	}
}

// stepsTo returns steps with the given results.
func stepsTo(results ...event.History) []Step {
	steps := make([]Step, len(results))
	for i, r := range results {
		steps[i].Result = r
	}
	return steps
}

// stepKeys renders the results of steps, one per line, in order.
func stepKeys(steps []Step) string {
	var b strings.Builder
	for _, s := range steps {
		b.WriteString(s.Result.Key())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestStepsEmptyAndTrivial covers enumeration edges.
func TestStepsEmptyAndTrivial(t *testing.T) {
	reg := testRegistry(t)
	if steps := Steps(reg, event.Lambda); len(steps) != 0 {
		t.Errorf("Λ admits %d steps, want 0", len(steps))
	}
	if steps := Steps(reg, h(event.S("read", "k"))); len(steps) != 0 {
		t.Errorf("bare start admits %d steps, want 0", len(steps))
	}
	// Unregistered action: no rules apply.
	if steps := Steps(reg, h(event.S("ghost", "x"), event.C("ghost", "y"), event.S("ghost", "x"), event.C("ghost", "y"))); len(steps) != 0 {
		t.Errorf("unregistered action admits %d steps, want 0", len(steps))
	}
}
