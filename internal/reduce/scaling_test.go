package reduce_test

import (
	"fmt"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/exper"
	"xability/internal/reduce"
	"xability/internal/workload"
)

// overlappedPairs builds requests/2 couples of idempotent reads whose
// executions overlap — S₁ S₂ C₁ C₂ — so that every second pair has to be
// compacted (the Λ form of rule 18) across one event of junk.
func overlappedPairs(reg *action.Registry, requests int) (event.History, []reduce.TargetSpec) {
	var h event.History
	var specs []reduce.TargetSpec
	for i := 0; i+1 < requests; i += 2 {
		var iv, ov [2]action.Value
		for k := range iv {
			req := action.NewRequest("read", action.Value(fmt.Sprintf("k%d", i+k))).WithID(fmt.Sprintf("q%d", i+k))
			spec, err := reduce.SpecFor(reg, req)
			if err != nil {
				panic(err)
			}
			specs = append(specs, spec)
			iv[k], ov[k] = req.EffectiveInput(), action.Value(fmt.Sprintf("v%d", i+k))
		}
		h = append(h, event.S("read", iv[0]), event.S("read", iv[1]), event.C("read", ov[0]), event.C("read", ov[1]))
	}
	return h, specs
}

// checkerShapes are the history families each rule's sweep has to stay
// linear on, as builders of a history of about the given number of events.
var checkerShapes = []struct {
	name  string
	build func(reg *action.Registry, events int) (event.History, []reduce.TargetSpec)
}{
	{"reads dup=3", func(reg *action.Registry, events int) (event.History, []reduce.TargetSpec) {
		return exper.SyntheticHistory(reg, events/6, 3)
	}},
	{"debits, one cancelled round", func(reg *action.Registry, events int) (event.History, []reduce.TargetSpec) {
		return exper.SyntheticUndoableHistory(reg, events/8, 1, false)
	}},
	{"debits, cancelled and replayed round", func(reg *action.Registry, events int) (event.History, []reduce.TargetSpec) {
		return exper.SyntheticUndoableHistory(reg, events/10, 1, true)
	}},
	{"overlapped read pairs", func(reg *action.Registry, events int) (event.History, []reduce.TargetSpec) {
		return overlappedPairs(reg, events/2)
	}},
}

// TestNormalizeScalesLinearly gates the checker's growth without a
// calibrated stopwatch: on each shape the strict check of 20 000 events may
// cost at most 3× per event what it costs at 2 000 (best of 5 each, one
// process, one host — a ratio, so it holds on any runner). Linear reads
// about 1 and quadratic 10; a pass that rescans or copies the history per
// rewrite reads 10 to over 100 depending on the shape.
func TestNormalizeScalesLinearly(t *testing.T) {
	reg := workload.Registry()
	perEvent := func(h event.History, specs []reduce.TargetSpec) float64 {
		n := reduce.New(reg)
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if ok, _ := n.XAbleTo(h, specs); !ok {
				t.Fatalf("a %d-event history of the shape is not x-able", len(h))
			}
			best = min(best, time.Since(start))
		}
		return float64(best.Nanoseconds()) / float64(len(h))
	}
	for _, shape := range checkerShapes {
		small := perEvent(shape.build(reg, 2_000))
		large := perEvent(shape.build(reg, 20_000))
		t.Logf("%-38s %6.0f ns/event at 2 000 events, %6.0f at 20 000: ×%.2f", shape.name, small, large, large/small)
		if large > 3*small {
			t.Errorf("%s: %.0f ns/event at 20 000 events against %.0f at 2 000 — the check no longer scales linearly", shape.name, large, small)
		}
	}
}

// TestXAbleToAllocBudget pins what a check allocates on a warm Normalizer:
// the normal form and the outputs, whatever the length of the history and
// whichever rules rewrite it. An allocation per rewrite (a history copy, a
// remove set, a trace description) or per spec (a target key) coming back
// scales with the request count and fails it.
func TestXAbleToAllocBudget(t *testing.T) {
	reg := workload.Registry()
	n := reduce.New(reg)
	const budget = 2
	for _, shape := range checkerShapes {
		for _, events := range []int{400, 4000} {
			h, specs := shape.build(reg, events)
			allocs := testing.AllocsPerRun(10, func() {
				if ok, _ := n.XAbleTo(h, specs); !ok {
					t.Fatal("not x-able")
				}
			})
			t.Logf("%s, %d events: %.0f allocs per XAbleTo", shape.name, len(h), allocs)
			if allocs > budget {
				t.Errorf("%s: XAbleTo over %d events allocates %.0f times, budget %d", shape.name, len(h), allocs, budget)
			}
		}
	}
}

// BenchmarkXAbleUndoable measures the strict check on sequential debit
// requests with one cancelled round each — rule 19's shape.
func BenchmarkXAbleUndoable(b *testing.B) {
	reg := workload.Registry()
	for _, requests := range []int{800, 3200} {
		h, specs := exper.SyntheticUndoableHistory(reg, requests, 1, false)
		b.Run(fmt.Sprint(requests), func(b *testing.B) {
			n := reduce.New(reg)
			b.ReportAllocs()
			b.ReportMetric(float64(len(h)), "events")
			for i := 0; i < b.N; i++ {
				if ok, _ := n.XAbleTo(h, specs); !ok {
					b.Fatal("not x-able")
				}
			}
		})
	}
}
