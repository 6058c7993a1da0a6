package scenario

import "testing"

// TestNiceRunAllocBudget pins the whole pipeline's allocation bill: one
// complete nice-scenario run — cluster construction, a request through the
// protocol, settle, verdicts. Measured at 181 objects (188 under the race
// detector; 187 (194) while each layer's constructor allocated its
// cleaner's and heartbeat's timers, its slices and a bank's account names
// apart, 188 while the checker allocated each request's projection and
// normal form apart, 193 while a LocalProvider allocated each object and each
// cond its waiter list apart; 235 while every call built its effect keys,
// derived names and body context, every seed its vocabulary, and every
// server its round maps; 243 while each server's receive loop was a
// goroutine and EffectiveInput cost two objects); the budget stays 197, 5%
// above the 188 it was set from, so a regression of sixteen objects per run
// fails here, long before it shows as 5% on the benchmark's allocs_per_op. Alloc counts are deterministic, so the guard
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
// per-worker recycled world (reset-and-rerun) must allocate less than a
// fresh-world run — the substrate (the clock's event and waiter pools,
// endpoints and their conds, interning), the replica group (servers,
// machines, client, detectors, consensus, environment, observer) and its
// bank are the part reuse exists to amortize, and the checker's scratch.
// Measured at 21 objects (the same under the race detector; 97 while every
// seed built its replica group and bank afresh, 116 while each check built
// its normalizer and projections afresh, 117 while a LocalProvider
// allocated each object apart, 159 before the replica's hot path keyed its
// state by dense identities, 167 while each server's receive loop was a
// goroutine, 212 while every seed built a new clock), budget 5% above 21.
func TestNiceRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 22 {
		t.Fatalf("reused-network nice run allocates %.0f objects, budget 22", avg)
	}
}

// TestBatchedRunAllocBudget pins the slot plane's allocation bill: a full
// batch-nice run — 8 requests through batched submit, slot formation,
// pipelined commit, and per-request reply fan-out. Measured at 433
// objects fresh / 212 reused (448 / 220 under the race detector; ≈27 per
// request on the sweep path, the whole run amortized; 442 / 315 (459 /
// 326) while every seed built its replica group and bank afresh and each
// constructor allocated its timers and slices apart, 472 / 373 while the checker allocated
// each request's projection and normal form apart and the sweep path
// built a checker per run, 498 / 395 while a LocalProvider
// allocated each object and each cond its waiter list apart, 553 / 450
// before the replica's hot path keyed its state by dense identities,
// 581 / 478 while the receive loops, the batcher and the follower were
// goroutines); the budgets are the fresh one kept from before and the
// reused count plus 5%, so fan-out allocations that scale with batch size
// fail loudly.
func TestBatchedRunAllocBudget(t *testing.T) {
	sc, ok := Get("batch-nice")
	if !ok {
		t.Fatal("batch-nice not registered")
	}
	Execute(sc, 1)
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 464 {
		t.Fatalf("batched run allocates %.0f objects, budget 464", avg)
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg = testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 222 {
		t.Fatalf("reused-network batched run allocates %.0f objects, budget 222", avg)
	}
}

// TestOpenLoopAllocBudget pins the open-loop path's per-request bill — the
// in-repo gate for the benchmark's allocs_per_op on saturation: an
// open-loop-batch run, checker included, divided by its request count.
// Measured at 22.57 objects per request on seed 1 (the session with its
// timer, submit, slot membership, reply demux, latency log, and the
// request's share of the projection check). Under the race detector the
// count is not exact — sync.Pool drops items at random there — and read
// 24.00–24.16 over nine trials, so the budget, 24.4, sits above that
// rather than at 5% above 22.57 (23.70). It was 26.95 (28.28–28.44) while
// the checker allocated each request's projection and normal form apart,
// 27.76 (29.10–29.30) while
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
	if per := avg / float64(requests); per > 24.4 {
		t.Fatalf("open-loop batched run allocates %.1f objects per request (%.0f over %d requests), budget 24.4",
			per, avg, requests)
	}
}

// TestHeartbeatRunAllocBudget pins a faulted run's bill on the sweep path:
// one delay-storm-hb seed on a recycled network, ≈600 messages, most of
// them heartbeats. A beat's payload is boxed and its destinations named
// once per detector, not per send, and the senders and cleaners are
// timers, not goroutines, so the bill is the deployment and the request
// more than the message count. Measured at 91 objects (the same under the
// race detector; 211 while every seed built its replica group — four
// heartbeat detectors with their timers, stop channels and boxed payloads
// among it — and bank afresh, 237 while the sweep path built a checker per run and the
// checker allocated each request's projection and normal form apart, 240
// while each cond allocated its waiter list apart, 332
// before the replica's hot path keyed its state by dense identities, 358 while each server's receive loop was a goroutine
// and EffectiveInput cost two objects, 507 while every seed built a new
// clock and named its /fd and /cons endpoints afresh, 1 675 when every
// beat allocated its destination and payload); the budget is 5% above 91, so a
// clock, a cond pool, a process name or a replica group rebuilt per seed
// fails here.
func TestHeartbeatRunAllocBudget(t *testing.T) {
	sc, ok := Get("delay-storm-hb")
	if !ok {
		t.Fatal("delay-storm-hb not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 95 {
		t.Fatalf("reused-network delay-storm-hb run allocates %.0f objects, budget 95", avg)
	}
}

// TestShardedRunReusedAllocBudget pins the sharded sweep path: one
// shard-power-cycle seed on a recycled scratch — four durable groups, each
// on its own recycled network, all on the worker's one rewound clock,
// routed by the one memoized ring, and every group checked on the
// worker's one Checker, and the groups themselves reset in place with
// their stable storage. Measured at 598 objects (603 under the race
// detector; 1 203 (1 212) while every seed built its four groups, their
// WAL stores and banks afresh, 1 337 while each group's check built its normalizer and
// projections afresh, 2 285 while CT boxed every message and allocated each
// instance's cond and scratch apart, 2 622 before the replica's hot path
// keyed its state by dense identities, 2 712 while each server's receive
// loop was a goroutine and EffectiveInput cost two objects, 3 319 while
// every seed built a new clock, conds and ring); the budget is 5% above
// 598.
func TestShardedRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("shard-power-cycle")
	if !ok {
		t.Fatal("shard-power-cycle not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 627 {
		t.Fatalf("reused-network shard-power-cycle run allocates %.0f objects, budget 627", avg)
	}
}

// TestCTRunReusedAllocBudget pins CT consensus on the sweep path: one
// power-cycle seed on a recycled scratch, three durable replicas agreeing
// over the network across a total outage. A CT instance is one allocation
// with its scratch inside it, and a message a slot of its sender's slab.
// Measured at 197 objects (the same under the race detector; 340 while
// every seed built its replica group — three CT nodes, the WAL store and
// its logs among it — and bank afresh, 366 while each check built its
// normalizer and projections afresh, 529 while CT boxed every message and
// allocated each instance's cond and scratch apart); the budget is 5%
// above 197.
func TestCTRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("power-cycle")
	if !ok {
		t.Fatal("power-cycle not registered")
	}
	scratch := &runScratch{}
	execute(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { execute(sc, 2, RunOptions{}, scratch) })
	if avg > 206 {
		t.Fatalf("reused-network power-cycle run allocates %.0f objects, budget 206", avg)
	}
}
