package reduce

import (
	"fmt"
	"testing"

	"xability/internal/action"
	"xability/internal/event"
)

// Ablation benchmarks for the design choices DESIGN.md §2 records: the
// greedy engine vs the exhaustive search, and strict whole-history
// reduction vs the per-request projection.

// BenchmarkAblationGreedyVsSearch compares the two engines on the same
// small history (the largest class where the exhaustive engine is usable).
func BenchmarkAblationGreedyVsSearch(b *testing.B) {
	reg := action.NewRegistry()
	reg.MustRegister("read", action.KindIdempotent)
	hist := event.History{
		event.S("read", "k"), event.S("read", "k"), event.S("read", "k"),
		event.C("read", "v"), event.C("read", "v"), event.C("read", "v"),
	}
	spec, _ := SpecFor(reg, action.NewRequest("read", "k"))
	specs := []TargetSpec{spec}
	accept := func(c event.History) bool {
		_, ok := MatchTarget(c, specs)
		return ok
	}

	b.Run("greedy", func(b *testing.B) {
		n := New(reg)
		for i := 0; i < b.N; i++ {
			if _, ok := MatchTarget(n.Toward(specs).Normalize(hist), specs); !ok {
				b.Fatal("greedy failed")
			}
		}
	})
	b.Run("search", func(b *testing.B) {
		n := New(reg)
		for i := 0; i < b.N; i++ {
			if res := n.Search(hist, accept, 0); !res.Found {
				b.Fatal("search failed")
			}
		}
	})
}

// BenchmarkAblationStrictVsProjected compares R3's two forms on a clean
// multi-request history where both succeed.
func BenchmarkAblationStrictVsProjected(b *testing.B) {
	reg := action.NewRegistry()
	reg.MustRegister("read", action.KindIdempotent)
	var hist event.History
	var reqs []action.Request
	var specs []TargetSpec
	for i := 0; i < 32; i++ {
		req := action.NewRequest("read", action.Value(fmt.Sprintf("k%d", i))).WithID(fmt.Sprintf("q%d", i))
		reqs = append(reqs, req)
		spec, _ := SpecFor(reg, req)
		specs = append(specs, spec)
		iv := req.EffectiveInput()
		hist = append(hist, event.S("read", iv), event.S("read", iv), event.C("read", "v"), event.C("read", "v"))
	}

	b.Run("strict", func(b *testing.B) {
		n := New(reg)
		for i := 0; i < b.N; i++ {
			if ok, _ := n.XAbleTo(hist, specs); !ok {
				b.Fatal("strict failed")
			}
		}
	})
	b.Run("projected", func(b *testing.B) {
		n := New(reg)
		for i := 0; i < b.N; i++ {
			if ok, _ := n.XAbleProjected(hist, reqs); !ok {
				b.Fatal("projected failed")
			}
		}
	})
}

// TestAblationSearchStateGrowth quantifies why the exhaustive engine is
// the oracle and not the default: reachable states explode with history
// length.
func TestAblationSearchStateGrowth(t *testing.T) {
	reg := action.NewRegistry()
	reg.MustRegister("read", action.KindIdempotent)
	n := New(reg)
	prev := 0
	for _, pairs := range []int{1, 2, 3} {
		var hist event.History
		for i := 0; i < pairs; i++ {
			hist = append(hist, event.S("read", "k"), event.C("read", "v"))
		}
		res := n.Search(hist, func(event.History) bool { return false }, 0)
		if !res.Exhausted {
			t.Fatalf("budget hit at %d pairs", pairs)
		}
		if res.States < prev {
			t.Errorf("state count shrank: %d pairs -> %d states (prev %d)", pairs, res.States, prev)
		}
		prev = res.States
		t.Logf("%d duplicate pairs: %d reachable states", pairs, res.States)
	}
}
