package reduce

import (
	"fmt"
	"testing"

	"xability/internal/action"
	"xability/internal/event"
)

// BenchmarkReduceIdempotentRetry measures greedy normalization of the
// canonical retry history (experiment E2's performance leg).
func BenchmarkReduceIdempotentRetry(b *testing.B) {
	reg := testRegistry(b)
	n := New(reg)
	hist := h(
		event.S("read", "k"), event.S("read", "k"), event.S("read", "k"),
		event.C("read", "v"), event.C("read", "v"),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Normalize(hist)
	}
}

// BenchmarkReduceCancelChain measures rule-19-heavy histories: rounds of
// execute/cancel before a final commit.
func BenchmarkReduceCancelChain(b *testing.B) {
	reg := testRegistry(b)
	n := New(reg)
	base := action.NewRequest("debit", "a").WithID("q")
	var hist event.History
	for round := 1; round <= 5; round++ {
		r := base.WithRound(round)
		s, c := undoableEvents(r, "v")
		cs, cc := cancelPair(r)
		hist = hist.Concat(h(s, c, cs, cc))
	}
	ff, _ := EventsOf(reg, base.WithRound(6), "final")
	hist = hist.Concat(ff)
	spec, _ := SpecFor(reg, base)
	specs := []TargetSpec{spec}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _ := n.XAbleTo(hist, specs); !ok {
			b.Fatal("not x-able")
		}
	}
}

// BenchmarkXAbleSweep measures end-to-end sequence checking at several
// sizes (feeds table T6).
func BenchmarkXAbleSweep(b *testing.B) {
	reg := testRegistry(b)
	for _, requests := range []int{8, 64} {
		var hist event.History
		var specs []TargetSpec
		for i := 0; i < requests; i++ {
			req := action.NewRequest("read", action.Value(fmt.Sprintf("k%d", i))).WithID(fmt.Sprintf("q%d", i))
			spec, _ := SpecFor(reg, req)
			specs = append(specs, spec)
			iv := req.EffectiveInput()
			hist = append(hist,
				event.S("read", iv), event.S("read", iv), event.C("read", "v"), event.C("read", "v"))
		}
		b.Run(fmt.Sprintf("requests=%d", requests), func(b *testing.B) {
			n := New(reg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, _ := n.XAbleTo(hist, specs); !ok {
					b.Fatal("not x-able")
				}
			}
		})
	}
}

// BenchmarkShortHistories measures what the simulator's sweeps ask of the
// checker: histories of a few requests, each checked through a Normalizer
// of its own, strict and then projected, as verify.Check does. The three
// are a fault-free run, a run whose first debit round lost its owner and
// was cancelled, and a read retried twice.
func BenchmarkShortHistories(b *testing.B) {
	reg := testRegistry(b)
	pair := func(r action.Request, ov action.Value) event.History {
		iv := r.EffectiveInput()
		return h(event.S(r.Action, iv), event.C(r.Action, ov).WithAnnotation(string(iv)))
	}
	start := func(r action.Request) event.History { return h(event.S(r.Action, r.EffectiveInput())) }
	read0 := action.NewRequest("read", "k0").WithID("q0")
	debit1 := action.NewRequest("debit", "a").WithID("q1")
	read2 := action.NewRequest("read", "k2").WithID("q2")
	runs := []struct {
		reqs  []action.Request
		h     event.History
		specs []TargetSpec
	}{
		{reqs: []action.Request{read0, debit1, read2}, h: event.Lambda.Concat(
			pair(read0, "v0"),
			pair(debit1.WithRound(1), "ok"), pair(debit1.WithRound(1).Commit(), action.Nil),
			pair(read2, "v2"))},
		{reqs: []action.Request{read0, debit1, read2}, h: event.Lambda.Concat(
			pair(read0, "v0"),
			start(debit1.WithRound(1)), // the owner crashed mid-execution
			pair(debit1.WithRound(1).Cancel(), action.Nil),
			pair(debit1.WithRound(2), "ok"), pair(debit1.WithRound(2).Commit(), action.Nil),
			pair(read2, "v2"))},
		{reqs: []action.Request{read0}, h: event.Lambda.Concat(
			start(read0), // never completed
			pair(read0, "v0"), pair(read0, "v0"))},
	}
	for i := range runs {
		for _, req := range runs[i].reqs {
			spec, err := SpecFor(reg, req)
			if err != nil {
				b.Fatal(err)
			}
			runs[i].specs = append(runs[i].specs, spec)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rn := range runs {
			n := New(reg)
			if ok, _ := n.XAbleTo(rn.h, rn.specs); !ok {
				b.Fatal("not x-able")
			}
			if ok, _ := n.XAbleProjected(rn.h, rn.reqs); !ok {
				b.Fatal("no projection x-able")
			}
		}
	}
}

// BenchmarkSearchSmall measures the exhaustive oracle on an 8-event
// history, the size class the greedy/exhaustive agreement tests use.
func BenchmarkSearchSmall(b *testing.B) {
	reg := testRegistry(b)
	n := New(reg)
	hist := h(
		event.S("read", "k"), event.S("read", "k"),
		event.C("read", "v"), event.C("read", "v"),
	)
	spec, _ := SpecFor(reg, action.NewRequest("read", "k"))
	accept := func(c event.History) bool {
		_, ok := MatchTarget(c, []TargetSpec{spec})
		return ok
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := n.Search(hist, accept, 0); !res.Found {
			b.Fatal("not found")
		}
	}
}

// BenchmarkSignature measures signature extraction (eqs. 24–25).
func BenchmarkSignature(b *testing.B) {
	reg := testRegistry(b)
	n := New(reg)
	hist := h(event.S("read", "k"), event.S("read", "k"), event.C("read", "v"))
	req := action.NewRequest("read", "k")
	for i := 0; i < b.N; i++ {
		if sigs := n.Signature(hist, req); len(sigs) != 1 {
			b.Fatal("signature broken")
		}
	}
}
