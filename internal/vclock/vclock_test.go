package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesInstantly(t *testing.T) {
	v := NewVirtual()
	start := time.Now()
	v.Sleep(10 * time.Second) // virtual: must not take wall time
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("virtual sleep took %v of wall time", wall)
	}
	if now := v.Now(); now != 10*time.Second {
		t.Errorf("Now = %v, want 10s", now)
	}
}

func TestVirtualSleepOrdering(t *testing.T) {
	v := NewVirtual()
	var order []int
	// Spawn in an order unrelated to the deadlines; wake order must follow
	// the deadlines. Spawning runs nothing, so every child exists before
	// the first one sleeps.
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		v.Go(func() {
			v.Sleep(d)
			order = append(order, i)
		})
	}
	v.RunOut()
	want := []int{1, 2, 0}
	if len(order) != len(want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
	if v.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", v.Now())
	}
}

func TestVirtualEqualDeadlinesFIFO(t *testing.T) {
	v := NewVirtual()
	var order []int
	// GoAfter fixes the sequence at call time: equal deadlines fire in
	// scheduling order.
	for i := 0; i < 5; i++ {
		v.GoAfter(time.Millisecond, func() { order = append(order, i) })
	}
	v.RunOut()
	if len(order) != 5 {
		t.Fatalf("fire order = %v, want five callbacks", order)
	}
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("fire order = %v, want FIFO", order)
		}
	}
}

// The test goroutine waits on the cond itself: its wait is what runs the
// clock goroutine that broadcasts.
func TestVirtualCondBroadcast(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	ready := false
	v.Go(func() {
		v.Sleep(time.Millisecond)
		mu.Lock()
		ready = true
		mu.Unlock()
		cond.Broadcast()
	})
	mu.Lock()
	for !ready {
		cond.Wait()
	}
	mu.Unlock()
	if now := v.Now(); now != time.Millisecond {
		t.Errorf("Now = %v, want 1ms", now)
	}
}

func TestVirtualCondWaitTimeout(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	mu.Lock()
	woken := cond.WaitTimeout(3 * time.Millisecond)
	mu.Unlock()
	if woken {
		t.Error("WaitTimeout with no broadcast reported a wake-up")
	}
	if v.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms (timeout advanced the clock)", v.Now())
	}

	// A broadcast before the deadline wins over the timer.
	v.Go(func() {
		v.Sleep(time.Millisecond)
		cond.Broadcast()
	})
	mu.Lock()
	woken = cond.WaitTimeout(time.Hour)
	mu.Unlock()
	if !woken {
		t.Error("broadcast before deadline reported as timeout")
	}
	if v.Now() >= time.Hour {
		t.Errorf("Now = %v: stale timer advanced the clock", v.Now())
	}
}

// A broadcast with several waiters must wake them one at a time, in the
// order they armed — never make siblings simultaneously runnable and let
// the OS scheduler pick. This is the within-process send-order pin: two
// goroutines of one node woken by the same broadcast used to race their
// subsequent sends, so schedules could differ across worker counts. Run
// under -race -count=5 in CI.
func TestBroadcastWakesInArmOrder(t *testing.T) {
	const n = 8
	for iter := 0; iter < 25; iter++ {
		v := NewVirtual()
		var mu sync.Mutex
		cond := v.NewCond(&mu)
		var order []int
		ready := false
		for i := 0; i < n; i++ {
			v.Go(func() {
				// Distinct arm instants fix the arming order; the
				// broadcast later wakes everyone at one instant.
				v.Sleep(time.Duration(i+1) * time.Microsecond)
				mu.Lock()
				for !ready {
					cond.Wait()
				}
				order = append(order, i)
				mu.Unlock()
			})
		}
		v.Go(func() {
			v.Sleep(time.Duration(n+2) * time.Microsecond)
			mu.Lock()
			ready = true
			mu.Unlock()
			cond.Broadcast()
		})
		v.RunOut()
		if len(order) != n {
			t.Fatalf("iter %d: %d of %d waiters woke", iter, len(order), n)
		}
		for i := range order {
			if order[i] != i {
				t.Fatalf("iter %d: wake order = %v, want arm order 0..%d", iter, order, n-1)
			}
		}
	}
}

// Timed waiters broadcast at one instant must also wake in arm order, and
// their abandoned timers must neither wake them twice nor advance the
// clock.
func TestBroadcastTimedWaitersArmOrder(t *testing.T) {
	const n = 6
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	var order []int
	ready := false
	for i := 0; i < n; i++ {
		v.Go(func() {
			v.Sleep(time.Duration(i+1) * time.Microsecond)
			mu.Lock()
			for !ready {
				if !cond.WaitTimeout(time.Hour) {
					t.Errorf("waiter %d timed out", i)
					break
				}
			}
			order = append(order, i)
			mu.Unlock()
		})
	}
	v.Go(func() {
		v.Sleep(time.Duration(n+2) * time.Microsecond)
		mu.Lock()
		ready = true
		mu.Unlock()
		cond.Broadcast()
	})
	v.RunOut()
	if len(order) != n {
		t.Fatalf("%d of %d waiters woke", len(order), n)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v, want arm order 0..%d", order, n-1)
		}
	}
	if v.Now() >= time.Hour {
		t.Errorf("Now = %v: an abandoned timer advanced the clock", v.Now())
	}
}

// Drain must let every same-instant wake already in the heap run to its
// next blocking point before returning, and must not wait for events at
// future instants.
func TestDrainDeliversPendingWakes(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	woken := 0
	ready := false
	const n = 4
	for i := 0; i < n; i++ {
		v.Go(func() {
			mu.Lock()
			for !ready {
				cond.Wait()
			}
			woken++
			mu.Unlock()
		})
	}
	v.Sleep(time.Millisecond) // every waiter starts and blocks
	// A future event must not block Drain.
	v.GoAfter(time.Hour, func() {})
	mu.Lock()
	ready = true
	mu.Unlock()
	cond.Broadcast()
	v.Drain()
	mu.Lock()
	got := woken
	mu.Unlock()
	if got != n {
		t.Errorf("after Drain, %d of %d waiters had run", got, n)
	}
	if now := v.Now(); now >= time.Hour {
		t.Errorf("Now = %v: Drain waited for a future event", now)
	}
}
