package scenario

import "testing"

// TestNiceRunAllocBudget pins the whole pipeline's allocation bill: one
// complete nice-scenario run — cluster construction, a request through the
// protocol, settle, verdicts. Measured at 243 objects (the same under the
// race detector); the budget is 5% above 243, so a regression of a dozen
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
	if avg > 255 {
		t.Fatalf("nice run allocates %.0f objects, budget 255", avg)
	}
}

// TestNiceRunReusedAllocBudget pins the sweep path: the same run on a
// per-worker recycled clock and network (reset-and-rerun) must allocate
// less than a fresh-world run — the substrate (the clock's event and
// waiter pools, endpoints and their conds, interning) is the part reuse
// exists to amortize. Measured at 167 objects (the same under the race
// detector; 212 while every seed built a new clock), budget 5% above 167.
func TestNiceRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 175 {
		t.Fatalf("reused-network nice run allocates %.0f objects, budget 175", avg)
	}
}

// TestBatchedRunAllocBudget pins the slot plane's allocation bill: a full
// batch-nice run — 8 requests through batched submit, slot formation,
// pipelined commit, and per-request reply fan-out. Measured at 581
// objects fresh / 478 reused (593 / 487 under the race detector; ≈70 per
// request, the whole run amortized); the budgets are that plus 5%, so
// fan-out allocations that scale with batch size fail loudly.
func TestBatchedRunAllocBudget(t *testing.T) {
	sc, ok := Get("batch-nice")
	if !ok {
		t.Fatal("batch-nice not registered")
	}
	Execute(sc, 1)
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 610 {
		t.Fatalf("batched run allocates %.0f objects, budget 610", avg)
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg = testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 502 {
		t.Fatalf("reused-network batched run allocates %.0f objects, budget 502", avg)
	}
}

// TestOpenLoopAllocBudget pins the open-loop path's per-request bill — the
// in-repo gate for the benchmark's allocs_per_op on saturation: an
// open-loop-batch run, checker included, divided by its request count.
// Measured at 33.66 objects per request on seed 1 (35.11 under the race
// detector; the session with its timer, submit, slot membership, reply
// demux, latency log, and the request's share of the projection check),
// budget that plus 5%. It was 33.2 (34.6) until the network drew every
// delay from one stream: seed 1's schedule moved, and seeds 1–8 together
// went 32.51 → 32.47. Per-request cost is the number that must stay flat
// for 100k-session experiments to be routine.
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
	if per := avg / float64(requests); per > 35.3 {
		t.Fatalf("open-loop batched run allocates %.1f objects per request (%.0f over %d requests), budget 35.3",
			per, avg, requests)
	}
}

// TestHeartbeatRunAllocBudget pins a faulted run's bill on the sweep path:
// one delay-storm-hb seed on a recycled network, ≈600 messages, most of
// them heartbeats. A beat's payload is boxed and its destinations named
// once per detector, not per send, and the senders and cleaners are
// timers, not goroutines, so the bill is the deployment and the request
// more than the message count. Measured at 358 objects (the same under the
// race detector; 507 while every seed built a new clock and named its /fd
// and /cons endpoints afresh, 1 675 when every beat allocated its
// destination and payload); the budget is 5% above 358, so a clock, a cond
// pool or a process name rebuilt per seed fails here.
func TestHeartbeatRunAllocBudget(t *testing.T) {
	sc, ok := Get("delay-storm-hb")
	if !ok {
		t.Fatal("delay-storm-hb not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 376 {
		t.Fatalf("reused-network delay-storm-hb run allocates %.0f objects, budget 376", avg)
	}
}

// TestShardedRunReusedAllocBudget pins the sharded sweep path: one
// shard-power-cycle seed on a recycled scratch — four durable groups, each
// on its own recycled network, all on the worker's one rewound clock,
// routed by the one memoized ring. Measured at 2 712 objects (2 720 under
// the race detector; 3 319 while every seed built a new clock, conds and
// ring); the budget is 5% above 2 712.
func TestShardedRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("shard-power-cycle")
	if !ok {
		t.Fatal("shard-power-cycle not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 2848 {
		t.Fatalf("reused-network shard-power-cycle run allocates %.0f objects, budget 2848", avg)
	}
}
