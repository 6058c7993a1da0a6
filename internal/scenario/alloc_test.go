package scenario

import "testing"

// TestNiceRunAllocBudget pins the whole pipeline's allocation bill: one
// complete nice-scenario run — cluster construction, a request through the
// protocol, settle, verdicts. Measured at 280 objects (284 under the race
// detector); the budget is 5% above 280, so a regression of a dozen
// objects per run fails here, long before it shows as 5% on the
// benchmark's allocs_per_op. Alloc counts are deterministic, so the guard
// is exact where wall-clock ratios could never be.
func TestNiceRunAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	Execute(sc, 1) // warm shared registries
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 294 {
		t.Fatalf("nice run allocates %.0f objects, budget 294", avg)
	}
}

// TestNiceRunReusedAllocBudget pins the sweep path: the same run on a
// per-worker recycled network (reset-and-rerun) must allocate less than a
// fresh-world run — the substrate (endpoints, interning, pools) is the
// part reuse exists to amortize. Measured at 236 objects (239 under the
// race detector), budget 5% above 236.
func TestNiceRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 248 {
		t.Fatalf("reused-network nice run allocates %.0f objects, budget 248", avg)
	}
}

// TestBatchedRunAllocBudget pins the slot plane's allocation bill: a full
// batch-nice run — 8 requests through batched submit, slot formation,
// pipelined commit, and per-request reply fan-out. Measured at 629
// objects fresh / 590 reused (644 / 606 under the race detector; ≈80 per
// request, the whole run amortized); the budgets are that plus 5%, so
// fan-out allocations that scale with batch size fail loudly.
func TestBatchedRunAllocBudget(t *testing.T) {
	sc, ok := Get("batch-nice")
	if !ok {
		t.Fatal("batch-nice not registered")
	}
	Execute(sc, 1)
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 660 {
		t.Fatalf("batched run allocates %.0f objects, budget 660", avg)
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg = testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 619 {
		t.Fatalf("reused-network batched run allocates %.0f objects, budget 619", avg)
	}
}

// TestOpenLoopAllocBudget pins the open-loop path's per-request bill — the
// in-repo gate for the benchmark's allocs_per_op on saturation: an
// open-loop-batch run, checker included, divided by its request count.
// Measured at 37.6 objects per request on seed 1 (39.2 under the race
// detector; station registration with its cond, submit, slot membership,
// reply demux, latency log, and the request's share of the projection
// check), budget that plus 5%. Per-request cost is the number that must
// stay flat for 100k-session experiments to be routine.
func TestOpenLoopAllocBudget(t *testing.T) {
	sc, ok := Get("open-loop-batch")
	if !ok {
		t.Fatal("open-loop-batch not registered")
	}
	requests := Execute(sc, 1).Requests
	if requests == 0 {
		t.Fatal("open-loop-batch generated no arrivals")
	}
	avg := testing.AllocsPerRun(10, func() { Execute(sc, 1) })
	if per := avg / float64(requests); per > 39.5 {
		t.Fatalf("open-loop batched run allocates %.1f objects per request (%.0f over %d requests), budget 39.5",
			per, avg, requests)
	}
}
