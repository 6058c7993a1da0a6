package vclock

import (
	"sync"
	"testing"
	"time"
)

// The Timer contract (see Timer): Reset schedules the Runner on the pump
// and supersedes any pending expiry, Stop supersedes it, and a superseded
// expiry is dropped the way a broadcast-woken waiter's timer is. Run under
// -race -count=5 in CI with the Runner tests.

// A superseded expiry neither runs nor moves the clock: re-armed from 5ms
// to 1ms, the Runner runs once, at 1ms, and the clock still reads 1ms once
// the stale 5ms entry has left the heap. Both arms count as events, neither
// as a spawn.
func TestTimerSupersededExpiryNeitherRunsNorMovesNow(t *testing.T) {
	v := NewVirtual()
	var at []time.Duration
	tm := v.NewTimer(runnerFunc(func() { at = append(at, v.Now()) }))
	v.Enter()
	tm.Reset(5 * time.Millisecond)
	tm.Reset(time.Millisecond)
	v.Exit() // the clock runs out on this goroutine's pump
	if len(at) != 1 || at[0] != time.Millisecond {
		t.Fatalf("Run at %v, want once at 1ms", at)
	}
	if !v.Quiesced() {
		t.Fatal("clock not quiesced: the superseded expiry is still pending")
	}
	if now := v.Now(); now != time.Millisecond {
		t.Errorf("Now = %v, want 1ms: the superseded 5ms expiry moved the clock", now)
	}
	if ev, sp := v.Events(), v.Spawns(); ev != 2 || sp != 0 {
		t.Errorf("Events, Spawns = %d, %d, want 2, 0", ev, sp)
	}
}

// After Stop nothing runs, the clock does not move, and it winds down to
// Quiesced — the stopped expiry is discarded, not left behind.
func TestTimerStopQuiesces(t *testing.T) {
	v := NewVirtual()
	runs := 0
	tm := v.NewTimer(runnerFunc(func() { runs++ }))
	v.Enter()
	tm.Reset(time.Millisecond)
	tm.Stop()
	v.Exit()
	if runs != 0 {
		t.Errorf("a stopped timer ran %d time(s)", runs)
	}
	if !v.Quiesced() {
		t.Error("clock not quiesced after Stop")
	}
	if now := v.Now(); now != 0 {
		t.Errorf("Now = %v, want 0", now)
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
	v.Enter()
	tm.Reset(0)
	mu.Lock()
	for runs < 100 {
		cond.Wait()
	}
	mu.Unlock()
	v.Exit()
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
	v.Enter()
	a.Reset(time.Millisecond)
	b.Reset(time.Millisecond)
	a.Reset(time.Millisecond)
	v.Exit()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Errorf("fired %v, want [b a]", order)
	}
	if now, sp := v.Now(), v.Spawns(); now != time.Millisecond || sp != 0 {
		t.Errorf("Now, Spawns = %v, %d, want 1ms, 0", now, sp)
	}
}
