package reduce

import (
	"math/rand"
	"testing"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/xrand"
)

func TestSearchFindsTargetDirectly(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	ff, _ := EventsOf(reg, action.NewRequest("read", "k"), "v")
	res := n.Search(ff, func(c event.History) bool { return c.Equal(ff) }, 0)
	if !res.Found || res.States != 1 {
		t.Errorf("Search on target = %+v", res)
	}
}

func TestSearchReducesDuplicate(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	hist := h(event.S("read", "k"), event.S("read", "k"), event.C("read", "v"))
	spec, _ := SpecFor(reg, action.NewRequest("read", "k"))
	res := n.Search(hist, func(c event.History) bool {
		_, ok := MatchTarget(c, []TargetSpec{spec})
		return ok
	}, 0)
	if !res.Found {
		t.Error("search should find the reduction")
	}
}

func TestSearchExhaustsNegative(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	hist := h(event.S("read", "k"))
	spec, _ := SpecFor(reg, action.NewRequest("read", "k"))
	res := n.Search(hist, func(c event.History) bool {
		_, ok := MatchTarget(c, []TargetSpec{spec})
		return ok
	}, 0)
	if res.Found {
		t.Error("dangling start must not be x-able")
	}
	if !res.Exhausted {
		t.Error("tiny state space should be exhausted")
	}
}

func TestSearchBudget(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	var hist event.History
	for i := 0; i < 6; i++ {
		hist = append(hist, event.S("read", "k"), event.C("read", "v"))
	}
	res := n.Search(hist, func(event.History) bool { return false }, 5)
	if res.Exhausted {
		t.Error("budget of 5 states cannot exhaust this space")
	}
	if res.States < 5 {
		t.Errorf("expected to hit the budget, visited %d", res.States)
	}
}

// randomProtocolishHistory generates a small history shaped like protocol
// traces: duplicate idempotent executions, cancelled undoable rounds,
// committed rounds, interleaved junk — with occasional corruption (dangling
// starts, diverging outputs) so that both verdicts occur.
func randomProtocolishHistory(rng *rand.Rand, reg *action.Registry) (event.History, []TargetSpec) {
	var hist event.History
	var specs []TargetSpec

	if rng.Intn(2) == 0 {
		// Idempotent request with 1–3 incarnations.
		req := action.NewRequest("read", "k")
		spec, _ := SpecFor(reg, req)
		specs = append(specs, spec)
		incarnations := 1 + rng.Intn(2)
		var starts, completes event.History
		for i := 0; i <= incarnations; i++ {
			starts = append(starts, event.S("read", "k"))
		}
		ov := action.Value("v")
		if rng.Intn(6) == 0 {
			ov = "corrupt" // diverging output for one incarnation
		}
		completes = append(completes, event.C("read", ov))
		completes = append(completes, event.C("read", "v"))
		if rng.Intn(5) == 0 {
			completes = completes[1:] // drop one completion
		}
		hist = hist.Concat(shuffleRespectingPairs(rng, starts, completes))
	} else {
		// Undoable request: zero or more cancelled rounds then a commit.
		base := action.NewRequest("debit", "a").WithID("q")
		spec, _ := SpecFor(reg, base)
		specs = append(specs, spec)
		rounds := 1 + rng.Intn(2)
		for r := 1; r < rounds; r++ {
			rr := base.WithRound(r)
			s, c := event.S(rr.Action, rr.EffectiveInput()), event.C(rr.Action, "v")
			can := rr.Cancel()
			cs, cc := event.S(can.Action, can.EffectiveInput()), event.C(can.Action, action.Nil)
			if rng.Intn(2) == 0 {
				hist = hist.Concat(h(s, c, cs, cc))
			} else {
				hist = hist.Concat(h(s, cs, cc)) // crashed before completing
			}
		}
		final := base.WithRound(rounds)
		ff, _ := EventsOf(reg, final, "v")
		if rng.Intn(6) == 0 {
			ff = ff[:2] // forget the commit
		}
		hist = hist.Concat(ff)
	}
	return hist, specs
}

// shuffleRespectingPairs interleaves starts (kept in front) and completions
// randomly while keeping at least one start before the first completion.
func shuffleRespectingPairs(rng *rand.Rand, starts, completes event.History) event.History {
	out := starts.Clone()
	for _, c := range completes {
		pos := 1 + rng.Intn(len(out))
		out = append(out[:pos], append(event.History{c}, out[pos:]...)...)
	}
	return out
}

func TestGreedyAgreesWithSearch(t *testing.T) {
	reg := testRegistry(t)
	rng := xrand.New(7)
	agreePositive, agreeNegative := 0, 0
	for trial := 0; trial < 400; trial++ {
		hist, specs := randomProtocolishHistory(rng, reg)
		if len(hist) > 12 {
			continue
		}
		n := New(reg)

		_, greedyOK := MatchTarget(n.Toward(specs).Normalize(hist), specs)

		res := n.Search(hist, func(c event.History) bool {
			_, ok := MatchTarget(c, specs)
			return ok
		}, 0)
		if !res.Found && !res.Exhausted {
			continue // inconclusive oracle; skip
		}

		if greedyOK && !res.Found {
			t.Fatalf("greedy claims x-able but exhaustive search disproves it\nhistory: %v", hist)
		}
		if !greedyOK && res.Found {
			t.Fatalf("greedy missed a reduction the search found\nhistory: %v\nwitness: %v", hist, res.Witness)
		}
		if greedyOK {
			agreePositive++
		} else {
			agreeNegative++
		}
	}
	if agreePositive == 0 || agreeNegative == 0 {
		t.Fatalf("test generator degenerate: %d positive, %d negative agreements", agreePositive, agreeNegative)
	}
	t.Logf("greedy and search agreed on %d x-able and %d non-x-able histories", agreePositive, agreeNegative)
}

func TestSearchStatesBoundedByVisited(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	hist := h(
		event.S("read", "k"), event.S("read", "k"),
		event.C("read", "v"), event.C("read", "v"),
	)
	res := n.Search(hist, func(event.History) bool { return false }, 0)
	if !res.Exhausted {
		t.Error("four-event space should be exhaustible")
	}
	if res.States <= 1 {
		t.Error("expected several reachable states")
	}
}
