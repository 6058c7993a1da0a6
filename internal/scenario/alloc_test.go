package scenario

import "testing"

// TestNiceRunAllocBudget pins the whole pipeline's allocation bill: one
// complete nice-scenario run — cluster construction, a request through the
// protocol, settle, verdicts. Measured at 188 objects (the same under the
// race detector; 193 while a LocalProvider allocated each object and each
// cond its waiter list apart; 235 while every call built its effect keys,
// derived names and body context, every seed its vocabulary, and every
// server its round maps; 243 while each server's receive loop was a
// goroutine and EffectiveInput cost two objects); the budget is 5% above
// 188, so a regression of ten objects per run fails here, long before it shows as 5% on the
// benchmark's allocs_per_op. Alloc counts are deterministic, so the guard
// is exact where wall-clock ratios could never be.
func TestNiceRunAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	Execute(sc, 1) // warm shared registries
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 197 {
		t.Fatalf("nice run allocates %.0f objects, budget 197", avg)
	}
}

// TestNiceRunReusedAllocBudget pins the sweep path: the same run on a
// per-worker recycled clock and network (reset-and-rerun) must allocate
// less than a fresh-world run — the substrate (the clock's event and
// waiter pools, endpoints and their conds, interning) is the part reuse
// exists to amortize. Measured at 116 objects (the same under the race
// detector; 117 while a LocalProvider allocated each object apart, 159
// before the replica's hot path keyed its state by dense identities, 167
// while each server's receive loop was a goroutine, 212 while every seed
// built a new clock), budget 5% above 116.
func TestNiceRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 121 {
		t.Fatalf("reused-network nice run allocates %.0f objects, budget 121", avg)
	}
}

// TestBatchedRunAllocBudget pins the slot plane's allocation bill: a full
// batch-nice run — 8 requests through batched submit, slot formation,
// pipelined commit, and per-request reply fan-out. Measured at 472
// objects fresh / 373 reused (482 / 383 under the race detector; ≈60 per
// request, the whole run amortized; 498 / 395 while a LocalProvider
// allocated each object and each cond its waiter list apart, 553 / 450
// before the replica's hot path keyed its state by dense identities,
// 581 / 478 while the receive loops, the batcher and the follower were
// goroutines); the budgets are that plus 5%, so fan-out allocations that
// scale with batch size fail loudly.
func TestBatchedRunAllocBudget(t *testing.T) {
	sc, ok := Get("batch-nice")
	if !ok {
		t.Fatal("batch-nice not registered")
	}
	Execute(sc, 1)
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 495 {
		t.Fatalf("batched run allocates %.0f objects, budget 495", avg)
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg = testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 391 {
		t.Fatalf("reused-network batched run allocates %.0f objects, budget 391", avg)
	}
}

// TestOpenLoopAllocBudget pins the open-loop path's per-request bill — the
// in-repo gate for the benchmark's allocs_per_op on saturation: an
// open-loop-batch run, checker included, divided by its request count.
// Measured at 26.95 objects per request on seed 1 (the session with its
// timer, submit, slot membership, reply demux, latency log, and the
// request's share of the projection check). Under the race detector the
// count is not exact — sync.Pool drops items at random there — and read
// 28.28–28.44 over eleven trials, so the budget, 28.7, sits above that
// rather than at 5% above 26.95 (28.30). It was 27.76 (29.10–29.30) while
// a LocalProvider allocated each object and each cond its waiter list
// apart, 31.94 (33.43) before the
// replica's hot path keyed its state by dense identities, 33.66 (35.11)
// while the receive loops, the batcher and the follower were goroutines
// and EffectiveInput cost two objects, and 33.2 (34.6) until the network
// drew every delay from one stream: seed 1's schedule moved, and seeds 1–8
// together went 32.51 → 32.47. Per-request cost is the number that must stay flat for
// 100k-session experiments to be routine.
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
	if per := avg / float64(requests); per > 28.7 {
		t.Fatalf("open-loop batched run allocates %.1f objects per request (%.0f over %d requests), budget 28.7",
			per, avg, requests)
	}
}

// TestHeartbeatRunAllocBudget pins a faulted run's bill on the sweep path:
// one delay-storm-hb seed on a recycled network, ≈600 messages, most of
// them heartbeats. A beat's payload is boxed and its destinations named
// once per detector, not per send, and the senders and cleaners are
// timers, not goroutines, so the bill is the deployment and the request
// more than the message count. Measured at 237 objects (the same under the
// race detector; 240 while each cond allocated its waiter list apart, 332
// before the replica's hot path keyed its state by dense identities, 358 while each server's receive loop was a goroutine
// and EffectiveInput cost two objects, 507 while every seed built a new
// clock and named its /fd and /cons endpoints afresh, 1 675 when every
// beat allocated its destination and payload); the budget is 5% above 237, so a
// clock, a cond pool or a process name rebuilt per seed fails here.
func TestHeartbeatRunAllocBudget(t *testing.T) {
	sc, ok := Get("delay-storm-hb")
	if !ok {
		t.Fatal("delay-storm-hb not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 248 {
		t.Fatalf("reused-network delay-storm-hb run allocates %.0f objects, budget 248", avg)
	}
}

// TestShardedRunReusedAllocBudget pins the sharded sweep path: one
// shard-power-cycle seed on a recycled scratch — four durable groups, each
// on its own recycled network, all on the worker's one rewound clock,
// routed by the one memoized ring. Measured at 1 337 objects (1 346 under
// the race detector; 2 285 while CT boxed every message and allocated each
// instance's cond and scratch apart, 2 622 before the replica's hot path
// keyed its state by dense identities, 2 712 while each server's receive
// loop was a goroutine and EffectiveInput cost two objects, 3 319 while
// every seed built a new clock, conds and ring); the budget is 5% above
// 1 337.
func TestShardedRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("shard-power-cycle")
	if !ok {
		t.Fatal("shard-power-cycle not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 1403 {
		t.Fatalf("reused-network shard-power-cycle run allocates %.0f objects, budget 1403", avg)
	}
}

// TestCTRunReusedAllocBudget pins CT consensus on the sweep path: one
// power-cycle seed on a recycled scratch, three durable replicas agreeing
// over the network across a total outage. A CT instance is one allocation
// with its scratch inside it, and a message a slot of its sender's slab.
// Measured at 366 objects (the same under the race detector; 529 while CT
// boxed every message and allocated each instance's cond and scratch
// apart); the budget is 5% above 366.
func TestCTRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("power-cycle")
	if !ok {
		t.Fatal("power-cycle not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 384 {
		t.Fatalf("reused-network power-cycle run allocates %.0f objects, budget 384", avg)
	}
}
