package vclock

import (
	"sync"
	"testing"
	"time"
)

// Alloc-budget guards: the virtual clock's primitives are the innermost
// loop of every simulated run, and pooling (vevents, waiters with
// reusable wake channels) made their steady state
// allocation-free. These tests fail loudly if that erodes. Budgets are
// averages over warmed-up pools; they hold under -race too (the race
// runtime does not add per-op mallocs on these paths).

// TestSleepAllocBudget pins Sleep at zero steady-state allocations: the
// waiter, its wake channel and the heap event are all pooled.
func TestSleepAllocBudget(t *testing.T) {
	v := NewVirtual()
	for i := 0; i < 100; i++ {
		v.Sleep(time.Microsecond) // warm the pools
	}
	avg := testing.AllocsPerRun(500, func() { v.Sleep(time.Microsecond) })
	if avg > 0.1 {
		t.Fatalf("Sleep allocates %.2f objects/op in steady state, budget 0", avg)
	}
}

// TestGoAfterAllocBudget pins the scheduled-spawn path: the event comes
// from the pool, so the only remaining allocation is the goroutine spawn
// itself. The sleep behind the spawn is what runs it.
func TestGoAfterAllocBudget(t *testing.T) {
	v := NewVirtual()
	fn := func() {}
	run := func() {
		v.GoAfter(time.Microsecond, fn)
		v.Sleep(2 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		run()
	}
	avg := testing.AllocsPerRun(500, run)
	if avg > 1.5 {
		t.Fatalf("GoAfter+run allocates %.2f objects/op in steady state, budget 1.5 (one goroutine spawn)", avg)
	}
}

// TestCondWaitAllocBudget pins the cond broadcast/wait cycle — the shape
// every endpoint receive and consensus phase wait takes.
func TestCondWaitAllocBudget(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	c := v.NewCond(&mu)
	wake := func() { c.Broadcast() }
	run := func() {
		v.GoAfter(0, wake) // runs nothing: the wake cannot fire before the wait is armed
		mu.Lock()
		c.Wait()
		mu.Unlock()
	}
	for i := 0; i < 100; i++ {
		run()
	}
	avg := testing.AllocsPerRun(500, run)
	if avg > 1.5 {
		t.Fatalf("cond wait cycle allocates %.2f objects/op in steady state, budget 1.5", avg)
	}
}
