package vclock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Reset rewinds a quiesced clock for the next run of a sweep worker. These
// tests pin its refusals, what it rewinds and what it keeps: a schedule run
// after Reset is the one a fresh clock runs, and on warm pools it
// allocates nothing. Run under -race -count=5 in CI with the Runner tests.

// A refused Reset changes nothing; the same clock rewinds once its world
// is run out.
func TestClockResetRefusesAPendingEvent(t *testing.T) {
	v := NewVirtual()
	v.Sleep(time.Millisecond)
	v.GoAfter(time.Millisecond, func() {})
	if v.Reset() {
		t.Fatal("Reset accepted a clock with a pending spawn")
	}
	if now, ev := v.Now(), v.Events(); now != time.Millisecond || ev != 2 {
		t.Errorf("refused Reset moved the clock: Now, Events = %v, %d, want 1ms, 2", now, ev)
	}
	v.RunOut()
	if !v.Reset() {
		t.Fatal("Reset refused a run-out clock")
	}
}

// A clock goroutine parked in an untimed cond wait has no pending event,
// but it has not returned: Reset refuses until it does.
func TestClockResetRefusesARunningGoroutine(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	released := false
	v.Go(func() {
		mu.Lock()
		for !released {
			cond.Wait()
		}
		mu.Unlock()
	})
	v.Sleep(0) // the goroutine starts and parks; nothing is left pending
	if v.Reset() {
		t.Fatal("Reset accepted a clock with a clock goroutine that has not returned")
	}
	if rep := v.Stop(); rep.Leaked != 1 {
		t.Errorf("Stop reports %d leaked goroutines, want 1", rep.Leaked)
	}
	v.Go(func() {
		mu.Lock()
		released = true
		cond.Broadcast()
		mu.Unlock()
	})
	v.RunOut()
	if !v.Reset() {
		t.Fatal("Reset refused a clock whose goroutines all returned")
	}
}

// Reset refuses while a caller is mid-wait: from inside the world (a
// Runner on the pump of the caller's Sleep), and while a waiter is handed
// out and not released — what a caller outside the clock parked in an
// untimed cond wait holds, with nothing pending and nothing running. (Such
// a caller cannot be woken here without stranding the waker: an outside
// caller's wake does not pump, which is why two callers must not wait on
// one clock at once; see Virtual.)
func TestClockResetRefusesACallerMidWait(t *testing.T) {
	v := NewVirtual()
	inside := true
	v.AfterRunner(0, runnerFunc(func() { inside = v.Reset() }))
	v.Sleep(time.Millisecond)
	if inside {
		t.Error("Reset from a Runner accepted a clock whose caller was mid-Sleep")
	}

	v.RunOut()
	v.mu.Lock()
	w := v.newWaiterLocked()
	v.mu.Unlock()
	if v.Quiesced() {
		t.Error("Quiesced with a waiter handed out")
	}
	if v.Reset() {
		t.Error("Reset accepted a clock with a waiter handed out")
	}
	v.mu.Lock()
	v.releaseWaiterLocked(w)
	v.mu.Unlock()
	if !v.Reset() {
		t.Error("Reset refused once the waiter was released")
	}
}

// Reset rewinds Now, Events, Spawns and Wakes to zero.
func TestClockResetRewinds(t *testing.T) {
	v := NewVirtual()
	resetScript(v)
	if v.Now() == 0 || v.Events() == 0 || v.Spawns() == 0 || v.Wakes() == 0 {
		t.Fatalf("script left Now, Events, Spawns, Wakes = %v, %d, %d, %d; want all nonzero",
			v.Now(), v.Events(), v.Spawns(), v.Wakes())
	}
	if !v.Reset() {
		t.Fatal("Reset refused a run-out clock")
	}
	if now, ev, sp, wk := v.Now(), v.Events(), v.Spawns(), v.Wakes(); now != 0 || ev != 0 || sp != 0 || wk != 0 {
		t.Errorf("after Reset Now, Events, Spawns, Wakes = %v, %d, %d, %d; want all zero", now, ev, sp, wk)
	}
	if !v.Quiesced() {
		t.Error("a reset clock is not quiesced")
	}
}

// A schedule run after Reset fires in the (time, seq) order it fires on a
// fresh clock, with the same counts: the kept pools and heap array carry
// nothing of the previous run.
func TestClockResetReplaysSchedule(t *testing.T) {
	want := resetScript(NewVirtual())

	v := NewVirtual()
	resetScript(v)
	v.GoAfter(3*time.Millisecond, func() { v.Sleep(time.Millisecond) })
	v.NewTimer(runnerFunc(func() {})).Reset(9 * time.Millisecond)
	v.RunOut()
	for round := 1; round <= 3; round++ {
		if !v.Reset() {
			t.Fatalf("round %d: Reset refused a run-out clock", round)
		}
		if got := resetScript(v); got != want {
			t.Errorf("round %d after Reset:\n%s\nfresh clock:\n%s", round, got, want)
		}
	}
}

// resetScript runs one world with events at shared instants — spawns, a
// Runner, a periodic Timer, goroutine and Runner waiters on one Cond, a
// broadcast and a timeout — to its end, and renders what fired, when, and
// the clock's counters.
func resetScript(v *Virtual) string {
	var tmu sync.Mutex
	var trace []string
	note := func(s string) {
		tmu.Lock()
		trace = append(trace, fmt.Sprintf("%v %s", v.Now(), s))
		tmu.Unlock()
	}
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	ready := false
	mu.Lock()
	cond.WaitRunner(5*time.Millisecond, runnerFunc(func() { note("waitrunner") }))
	cond.WaitRunner(500*time.Microsecond, runnerFunc(func() { note("timed out") }))
	mu.Unlock()
	v.Go(func() {
		for i := 0; i < 3; i++ {
			v.Sleep(time.Millisecond)
			note(fmt.Sprintf("sleeper %d", i))
		}
	})
	v.Go(func() {
		mu.Lock()
		for !ready {
			cond.Wait()
		}
		mu.Unlock()
		note("waiter")
	})
	v.GoAfter(time.Millisecond, func() {
		mu.Lock()
		ready = true
		cond.Broadcast()
		mu.Unlock()
		note("broadcaster")
	})
	v.AfterRunner(time.Millisecond, runnerFunc(func() { note("runner") }))
	ticks := 0
	var tm *Timer
	tm = v.NewTimer(runnerFunc(func() {
		ticks++
		note(fmt.Sprintf("tick %d", ticks))
		if ticks < 3 {
			tm.Reset(time.Millisecond)
		}
	}))
	tm.Reset(time.Millisecond)
	v.RunOut()
	tmu.Lock()
	defer tmu.Unlock()
	return fmt.Sprintf("%v\nNow %v Events %d Spawns %d Wakes %d",
		trace, v.Now(), v.Events(), v.Spawns(), v.Wakes())
}

// TestClockResetAllocFree pins the recycled clock's steady state: Reset
// keeps the event pool, the waiter pool with its wake channels and the
// heap array, so a reset followed by a Sleep and a timed cond wait
// allocates nothing.
func TestClockResetAllocFree(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	run := func() {
		if !v.Reset() {
			t.Fatal("Reset refused a run-out clock")
		}
		v.Sleep(time.Microsecond)
		mu.Lock()
		cond.WaitTimeout(time.Microsecond)
		mu.Unlock()
	}
	for i := 0; i < 100; i++ {
		run() // warm the pools
	}
	if avg := testing.AllocsPerRun(500, run); avg > 0 {
		t.Fatalf("Reset plus a Sleep and a cond wait allocates %.2f objects/op, want 0", avg)
	}
}
