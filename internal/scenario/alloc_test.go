package scenario

import "testing"

// TestNiceRunAllocBudget pins the whole pipeline's allocation bill: one
// complete nice-scenario run — cluster construction, a request through the
// protocol, settle, verdicts. Measured at 193 objects (the same under the
// race detector; 235 while every call built its effect keys, derived names
// and body context, every seed its vocabulary, and every server its round
// maps; 243 while each server's receive loop was a goroutine and
// EffectiveInput cost two objects); the budget is 5% above 193, so a
// regression of ten objects per run fails here, long before it shows as 5% on the
// benchmark's allocs_per_op. Alloc counts are deterministic, so the guard
// is exact where wall-clock ratios could never be.
func TestNiceRunAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	Execute(sc, 1) // warm shared registries
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 203 {
		t.Fatalf("nice run allocates %.0f objects, budget 203", avg)
	}
}

// TestNiceRunReusedAllocBudget pins the sweep path: the same run on a
// per-worker recycled clock and network (reset-and-rerun) must allocate
// less than a fresh-world run — the substrate (the clock's event and
// waiter pools, endpoints and their conds, interning) is the part reuse
// exists to amortize. Measured at 117 objects (the same under the race
// detector; 159 before the replica's hot path keyed its state by dense
// identities, 167 while each server's receive loop was a goroutine, 212
// while every seed built a new clock), budget 5% above 117.
func TestNiceRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 123 {
		t.Fatalf("reused-network nice run allocates %.0f objects, budget 123", avg)
	}
}

// TestBatchedRunAllocBudget pins the slot plane's allocation bill: a full
// batch-nice run — 8 requests through batched submit, slot formation,
// pipelined commit, and per-request reply fan-out. Measured at 498
// objects fresh / 395 reused (508 / 406 under the race detector; ≈60 per
// request, the whole run amortized; 553 / 450 before the replica's hot
// path keyed its state by dense identities, 581 / 478 while the receive
// loops, the batcher and the follower were goroutines); the budgets are
// that plus 5%, so fan-out allocations that scale with batch size fail loudly.
func TestBatchedRunAllocBudget(t *testing.T) {
	sc, ok := Get("batch-nice")
	if !ok {
		t.Fatal("batch-nice not registered")
	}
	Execute(sc, 1)
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 523 {
		t.Fatalf("batched run allocates %.0f objects, budget 523", avg)
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg = testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 415 {
		t.Fatalf("reused-network batched run allocates %.0f objects, budget 415", avg)
	}
}

// TestOpenLoopAllocBudget pins the open-loop path's per-request bill — the
// in-repo gate for the benchmark's allocs_per_op on saturation: an
// open-loop-batch run, checker included, divided by its request count.
// Measured at 27.76 objects per request on seed 1 (the session with its
// timer, submit, slot membership, reply demux, latency log, and the
// request's share of the projection check). Under the race detector the
// count is not exact — sync.Pool drops items at random there — and read
// 29.10–29.30 over eleven trials, so the budget, 29.5, sits above that
// rather than at 5% above 27.76 (29.14). It was 31.94 (33.43) before the
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
	if per := avg / float64(requests); per > 29.5 {
		t.Fatalf("open-loop batched run allocates %.1f objects per request (%.0f over %d requests), budget 29.5",
			per, avg, requests)
	}
}

// TestHeartbeatRunAllocBudget pins a faulted run's bill on the sweep path:
// one delay-storm-hb seed on a recycled network, ≈600 messages, most of
// them heartbeats. A beat's payload is boxed and its destinations named
// once per detector, not per send, and the senders and cleaners are
// timers, not goroutines, so the bill is the deployment and the request
// more than the message count. Measured at 240 objects (the same under the
// race detector; 332 before the replica's hot path keyed its state by
// dense identities, 358 while each server's receive loop was a goroutine
// and EffectiveInput cost two objects, 507 while every seed built a new
// clock and named its /fd and /cons endpoints afresh, 1 675 when every
// beat allocated its destination and payload); the budget is 5% above 240, so a
// clock, a cond pool or a process name rebuilt per seed fails here.
func TestHeartbeatRunAllocBudget(t *testing.T) {
	sc, ok := Get("delay-storm-hb")
	if !ok {
		t.Fatal("delay-storm-hb not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 252 {
		t.Fatalf("reused-network delay-storm-hb run allocates %.0f objects, budget 252", avg)
	}
}

// TestShardedRunReusedAllocBudget pins the sharded sweep path: one
// shard-power-cycle seed on a recycled scratch — four durable groups, each
// on its own recycled network, all on the worker's one rewound clock,
// routed by the one memoized ring. Measured at 2 285 objects (2 294 under
// the race detector; 2 622 before the replica's hot path keyed its state
// by dense identities, 2 712 while each server's receive loop was a
// goroutine and EffectiveInput cost two objects, 3 319 while every seed
// built a new clock, conds and ring); the budget is 5% above 2 285.
func TestShardedRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("shard-power-cycle")
	if !ok {
		t.Fatal("shard-power-cycle not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 2399 {
		t.Fatalf("reused-network shard-power-cycle run allocates %.0f objects, budget 2399", avg)
	}
}
