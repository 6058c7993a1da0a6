package reduce_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/exper"
	"xability/internal/reduce"
	"xability/internal/verify"
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

// checkerShape is a history family, as a builder of a history of about the
// given number of events and its target.
type checkerShape struct {
	name  string
	build func(reg *action.Registry, events int) (event.History, []reduce.TargetSpec)
}

// checkerShapes are the history families each rule's sweep has to stay
// linear on.
var checkerShapes = []checkerShape{
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
// the outputs, whatever the length of the history and whichever rules
// rewrite it (the normal form is matched in place). An allocation per
// rewrite (a history copy, a remove set, a trace description) or per spec
// (a target key) coming back scales with the request count and fails it.
func TestXAbleToAllocBudget(t *testing.T) {
	reg := workload.Registry()
	n := reduce.New(reg)
	const budget = 1
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

// TestColdCheckAllocBudget pins what a check costs on a fresh Normalizer,
// as xcheck and the check workload run it: bytes per event and allocations
// per history of reduce.New(reg).XAbleTo. The scratch is interned once and
// pointer-free, its group table sized from the history: a map, a table
// that grows in steps, a cell that embeds an event or a second copy of the
// history (the normal form) coming back moves the bytes well past the
// bound. Measured at 46.2 B/event in 7 objects and 39.3 in 7, the same
// under the race detector.
func TestColdCheckAllocBudget(t *testing.T) {
	reg := workload.Registry()
	for _, c := range []struct {
		requests, dup int
		bytesPerEvent float64 // budget
		allocs        float64 // budget
	}{
		{3200, 1, 49, 8},
		{320, 3, 42, 8},
	} {
		h, specs := exper.SyntheticHistory(reg, c.requests, c.dup)
		check := func() {
			if ok, _ := reduce.New(reg).XAbleTo(h, specs); !ok {
				t.Fatal("not x-able")
			}
		}
		check()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			check()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(h))
		allocs := testing.AllocsPerRun(runs, check)
		t.Logf("(%d, %d), %d events: %.1f B/event, %.0f allocs per check", c.requests, c.dup, len(h), bytes, allocs)
		if bytes > c.bytesPerEvent || allocs > c.allocs {
			t.Errorf("(%d, %d): a fresh check allocates %.1f B/event in %.0f objects, budget %.0f B/event in %.0f", c.requests, c.dup, bytes, allocs, c.bytesPerEvent, c.allocs)
		}
	}
}

// checkerRun is the sequential run whose history is h and whose requests
// are specs', replied with the outputs the strict check finds.
func checkerRun(t testing.TB, reg *action.Registry, h event.History, specs []reduce.TargetSpec) verify.Run {
	ok, outs := reduce.New(reg).XAbleTo(h, specs)
	if !ok {
		t.Fatalf("a %d-event history of the shape is not x-able", len(h))
	}
	reqs := make([]action.Request, len(specs))
	for i, s := range specs {
		reqs[i] = action.NewRequest(s.Action, s.Input).WithID(s.ID)
	}
	return verify.Run{Registry: reg, Requests: reqs, Replies: outs, History: h}
}

// TestCheckerScalesLinearly gates the verdict every run takes, where
// TestNormalizeScalesLinearly gates the strict check alone: on each shape,
// and on duplication-free reads, Checker.Check — the strict check, then one
// projected check per request on the same Normalizer — may cost at most 3×
// per event at 16 000 requests what it costs at 1 000 (best of 3 each). A
// per-request projection that pays for the whole history's scratch (a
// clear that costs the capacity the strict check grew) reads ×10 and more.
//
// Overlapped read pairs are not a run the checker passes: their
// completions are unannotated and cross, so the projection gives each
// completion to the newer start, the other request's, and stops at the
// first request.
func TestCheckerScalesLinearly(t *testing.T) {
	reg := workload.Registry()
	shapes := slices.DeleteFunc(slices.Clone(checkerShapes), func(s checkerShape) bool { return s.name == "overlapped read pairs" })
	shapes = append(shapes, checkerShape{"reads dup=1", func(reg *action.Registry, events int) (event.History, []reduce.TargetSpec) {
		return exper.SyntheticHistory(reg, events/2, 1)
	}})
	perEvent := func(run verify.Run) float64 {
		var c verify.Checker
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if rep := c.Check(run); !rep.OK() || !rep.R3Strict {
				t.Fatalf("a %d-request run of the shape does not check: %v", len(run.Requests), rep.Details)
			}
			best = min(best, time.Since(start))
		}
		return float64(best.Nanoseconds()) / float64(len(run.History))
	}
	for _, shape := range shapes {
		h, specs := shape.build(reg, 2_000)
		perRequest := float64(len(h)) / float64(len(specs))
		at := func(requests int) float64 {
			h, specs := shape.build(reg, int(float64(requests)*perRequest))
			return perEvent(checkerRun(t, reg, h, specs))
		}
		small, large := at(1_000), at(16_000)
		t.Logf("%-38s %6.0f ns/event at 1 000 requests, %6.0f at 16 000: ×%.2f", shape.name, small, large, large/small)
		if large > 3*small {
			t.Errorf("%s: Checker.Check costs %.0f ns/event at 16 000 requests against %.0f at 1 000 — the verdict no longer scales linearly", shape.name, large, small)
		}
	}
}

// TestCheckerAllocBudget pins what a warm Checker allocates per run, as a
// sweep worker keeps one: its Report's output lists and details, nothing
// per request and nothing that grows with the history. One Checker checks
// every case in turn — sequential and concurrent, 100 and 1 000 requests
// of reads with every execution tripled — so scratch that a run of another
// size makes regrow shows up here.
func TestCheckerAllocBudget(t *testing.T) {
	reg := workload.Registry()
	const budget = 2
	var c verify.Checker
	for _, concurrent := range []bool{false, true} {
		for _, requests := range []int{100, 1000} {
			h, specs := exper.SyntheticHistory(reg, requests, 3)
			run := checkerRun(t, reg, h, specs)
			run.Concurrent = concurrent
			allocs := testing.AllocsPerRun(10, func() {
				if !c.Check(run).OK() {
					t.Fatal("not x-able")
				}
			})
			t.Logf("concurrent %v, %d requests: %.0f objects per Check", concurrent, requests, allocs)
			if allocs > budget {
				t.Errorf("concurrent %v, %d requests: a warm Check allocates %.0f objects, budget %d", concurrent, requests, allocs, budget)
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
