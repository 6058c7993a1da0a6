package vclock

import (
	"sync"
	"testing"
	"time"
)

// A Runner waiting on a Cond (WaitRunner) is a waiter like a goroutine in a
// timed cond wait, minus the goroutine: a Broadcast or its timeout runs it
// on the pump. These tests pin the three things a goroutine's wait
// guaranteed and the Runner's must too. Run under -race -count=5 in CI.

// A Broadcast wakes Runner and goroutine waiters in arming order, one
// event each, and a Runner's wake wakes no goroutine.
func TestWaitRunnerWakesInArmingOrder(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	var order []string
	waiter := func(name string) func() {
		return func() {
			mu.Lock()
			cond.Wait()
			order = append(order, name)
			mu.Unlock()
		}
	}
	v.Go(waiter("g0"))
	v.Sleep(0) // g0 starts and waits
	mu.Lock()
	cond.WaitRunner(time.Second, runnerFunc(func() {
		mu.Lock()
		order = append(order, "r1")
		mu.Unlock()
	}))
	mu.Unlock()
	v.Go(waiter("g2"))
	v.Sleep(0) // g2 starts and waits
	wakes := v.Wakes()
	mu.Lock()
	cond.Broadcast()
	mu.Unlock()
	v.Sleep(time.Millisecond)
	v.RunOut() // the Runner's timeout is stale: dropped, not run
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != "g0" || order[1] != "r1" || order[2] != "g2" {
		t.Fatalf("wake order = %v, want arming order [g0 r1 g2]", order)
	}
	// The broadcast woke g0 and g2 and the sleep woke this goroutine; the
	// Runner ran on the pump.
	if got := v.Wakes() - wakes; got != 3 {
		t.Errorf("Wakes grew by %d, want 3", got)
	}
	if now := v.Now(); now != time.Millisecond {
		t.Errorf("Now = %v, want 1ms: the stale timeout moved the clock", now)
	}
}

// A timeout runs the Runner and takes it off the waiter list: a later
// Broadcast runs only what armed since — here the same Runner, re-armed
// from its own Run, exactly once.
func TestWaitRunnerTimeoutLeavesWaiterList(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	var at []time.Duration
	var r runnerFunc
	r = func() {
		mu.Lock()
		at = append(at, v.Now())
		if len(at) == 1 {
			cond.WaitRunner(time.Hour, r)
		}
		mu.Unlock()
	}
	mu.Lock()
	cond.WaitRunner(time.Millisecond, r)
	mu.Unlock()
	v.Sleep(2 * time.Millisecond)
	mu.Lock()
	cond.Broadcast()
	mu.Unlock()
	v.Sleep(time.Millisecond)
	v.RunOut()
	mu.Lock()
	defer mu.Unlock()
	if len(at) != 2 || at[0] != time.Millisecond || at[1] != 2*time.Millisecond {
		t.Fatalf("Run at %v, want [1ms 2ms]: once at the timeout, once at the broadcast", at)
	}
	if now := v.Now(); now != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms: the re-armed wait's stale timeout moved the clock", now)
	}
	if !v.Quiesced() {
		t.Error("clock not quiesced")
	}
}

// A timeout left behind by a Broadcast neither runs the Runner nor moves
// the clock, even when nothing else is scheduled.
func TestWaitRunnerStaleTimeoutNeitherRunsNorMovesClock(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	runs := 0
	mu.Lock()
	cond.WaitRunner(5*time.Millisecond, runnerFunc(func() { runs++ }))
	cond.Broadcast()
	mu.Unlock()
	v.RunOut()
	if runs != 1 {
		t.Fatalf("Run ran %d times, want 1", runs)
	}
	if now := v.Now(); now != 0 {
		t.Errorf("Now = %v, want 0: the stale timeout moved the clock", now)
	}
	if !v.Quiesced() {
		t.Error("clock not quiesced")
	}
	if sp := v.Spawns(); sp != 0 {
		t.Errorf("Spawns = %d, want 0", sp)
	}
}

// WaitRunner with a negative d is Wait's Runner form: arming pushes no
// event, time can pass under the armed Runner without running it, and only
// a Broadcast does. Until then the Runner is a waiter, so the clock is not
// Quiesced: a world whose receiver is armed has not wound down.
func TestWaitRunnerNoTimeoutRunsOnlyOnBroadcast(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	var at []time.Duration
	r := runnerFunc(func() { at = append(at, v.Now()) })
	mu.Lock()
	cond.WaitRunner(-1, r)
	mu.Unlock()
	if ev := v.Events(); ev != 0 {
		t.Fatalf("arming pushed %d event(s), want 0", ev)
	}
	if v.Quiesced() {
		t.Fatal("quiesced with a Runner armed on a cond")
	}
	v.Sleep(time.Hour) // nothing runs the Runner but a Broadcast
	if len(at) != 0 {
		t.Fatalf("Run ran at %v with no Broadcast", at)
	}
	if w := cond.Waiting(); w != 1 {
		t.Fatalf("Waiting = %d after an hour, want 1: the wait timed out", w)
	}
	mu.Lock()
	cond.Broadcast()
	mu.Unlock()
	// One event for the sleep, one for the broadcast wake.
	if ev := v.Events(); ev != 2 {
		t.Errorf("Events = %d, want 2", ev)
	}
	v.RunOut()
	if len(at) != 1 || at[0] != time.Hour {
		t.Fatalf("Run ran at %v, want once at the Broadcast (1h)", at)
	}
	if !v.Quiesced() {
		t.Error("not quiesced after the Broadcast ran the Runner")
	}
}
