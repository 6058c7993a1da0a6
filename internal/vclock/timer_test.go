package vclock

import (
	"sync"
	"testing"
	"time"
)

// The Timer contract (see Timer): Reset schedules the Runner on the pump
// and supersedes any pending expiry, Stop supersedes it, and a superseded
// expiry is dropped the way a broadcast-woken waiter's timer is. Each test
// waits on the clock itself (a Sleep lands behind the expiries it waits
// for), so the schedule runs on the test goroutine's own pump. Run under
// -race -count=5 in CI with the Runner tests.

// A superseded expiry neither runs nor moves the clock: re-armed from 5ms
// to 1ms, the Runner runs once, at 1ms, and the clock still reads 1ms once
// the stale 5ms entry has left the heap — RunOut drops it, since nothing
// else is pending. Both arms count as events (the sleep is the third),
// neither as a spawn.
func TestTimerSupersededExpiryNeitherRunsNorMovesNow(t *testing.T) {
	v := NewVirtual()
	var at []time.Duration
	tm := v.NewTimer(runnerFunc(func() { at = append(at, v.Now()) }))
	tm.Reset(5 * time.Millisecond)
	tm.Reset(time.Millisecond)
	v.Sleep(time.Millisecond) // wakes behind the 1ms expiry
	v.RunOut()                // drops the superseded 5ms entry
	if len(at) != 1 || at[0] != time.Millisecond {
		t.Fatalf("Run at %v, want once at 1ms", at)
	}
	if !v.Quiesced() {
		t.Fatal("clock not quiesced: the superseded expiry is still pending")
	}
	if now := v.Now(); now != time.Millisecond {
		t.Errorf("Now = %v, want 1ms: the superseded 5ms expiry moved the clock", now)
	}
	if ev, sp := v.Events(), v.Spawns(); ev != 3 || sp != 0 {
		t.Errorf("Events, Spawns = %d, %d, want 3, 0", ev, sp)
	}
}

// After Stop nothing runs, the clock does not move, and it winds down to
// Quiesced — the stopped expiry is discarded, not left behind.
func TestTimerStopQuiesces(t *testing.T) {
	v := NewVirtual()
	runs := 0
	tm := v.NewTimer(runnerFunc(func() { runs++ }))
	tm.Reset(time.Millisecond)
	tm.Stop()
	v.Sleep(0) // wakes at once: the stopped expiry is still ahead of it
	v.RunOut() // drops it without moving the clock
	if runs != 0 {
		t.Errorf("a stopped timer ran %d time(s)", runs)
	}
	if !v.Quiesced() {
		t.Error("clock not quiesced after Stop")
	}
	if now := v.Now(); now != 0 {
		t.Errorf("Now = %v, want 0", now)
	}
	if sp := v.Spawns(); sp != 0 {
		t.Errorf("Spawns = %d, want 0: a stopped expiry needs no pump", sp)
	}
}

// Reset may be called from inside Run: the timer re-arms itself, the
// expiry fires after Run returns, and no goroutine is spawned for any of
// it.
func TestTimerResetFromRun(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	runs := 0
	var tm *Timer
	tm = v.NewTimer(runnerFunc(func() {
		mu.Lock()
		runs++
		last := runs == 100
		mu.Unlock()
		if last {
			cond.Broadcast()
			return
		}
		tm.Reset(time.Microsecond)
	}))
	tm.Reset(0)
	mu.Lock()
	for runs < 100 {
		cond.Wait()
	}
	mu.Unlock()
	if now := v.Now(); now != 99*time.Microsecond {
		t.Errorf("Now = %v, want 99µs", now)
	}
	if rep := v.Stop(); rep.Leaked != 0 {
		t.Errorf("after the chain: %v", rep)
	}
	if !v.Quiesced() {
		t.Error("clock not quiesced after the chain")
	}
	if sp := v.Spawns(); sp != 0 {
		t.Errorf("Spawns = %d, want 0: a Timer runs on the pump", sp)
	}
}

// Two timers due at one instant fire in Reset order: the last Reset fixes
// a timer's place, so re-arming a moves it behind b.
func TestTimerSameInstantFiresInResetOrder(t *testing.T) {
	v := NewVirtual()
	var order []string
	a := v.NewTimer(runnerFunc(func() { order = append(order, "a") }))
	b := v.NewTimer(runnerFunc(func() { order = append(order, "b") }))
	a.Reset(time.Millisecond)
	b.Reset(time.Millisecond)
	a.Reset(time.Millisecond)
	v.Sleep(time.Millisecond) // wakes behind both expiries
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Errorf("fired %v, want [b a]", order)
	}
	if now, sp := v.Now(), v.Spawns(); now != time.Millisecond || sp != 0 {
		t.Errorf("Now, Spawns = %v, %d, want 1ms, 0", now, sp)
	}
}

// A clock goroutine's end still pumps inline: the Timer it armed runs on
// the pump that end starts, and wakes no goroutine — the one wake is the
// test's own cond wait.
func TestExitOfClockGoroutinePumpsInline(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	fired := false
	tm := v.NewTimer(runnerFunc(func() {
		mu.Lock()
		fired = true
		mu.Unlock()
		cond.Broadcast()
	}))
	v.Go(func() { tm.Reset(time.Millisecond) })
	mu.Lock()
	for !fired {
		cond.Wait()
	}
	mu.Unlock()
	if now, sp := v.Now(), v.Spawns(); now != time.Millisecond || sp != 1 {
		t.Errorf("Now, Spawns = %v, %d, want 1ms, 1 (the Go)", now, sp)
	}
	if w := v.Wakes(); w != 1 {
		t.Errorf("Wakes = %d, want 1: the test's cond wait, not the timer", w)
	}
	if !v.Quiesced() {
		t.Error("clock not quiesced")
	}
}
