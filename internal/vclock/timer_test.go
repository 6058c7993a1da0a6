package vclock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// The Timer contract (see Timer): Reset schedules the Runner on the pump
// and supersedes any pending expiry, Stop supersedes it, and a superseded
// expiry is dropped the way a broadcast-woken waiter's timer is. Each test
// waits while attached (a Sleep lands behind the expiries it waits for),
// so the schedule runs on the test goroutine's own pump; an external
// goroutine's Exit hands a live schedule to a clock goroutine instead (see
// Exit). Run under -race -count=5 in CI with the Runner tests.

// A superseded expiry neither runs nor moves the clock: re-armed from 5ms
// to 1ms, the Runner runs once, at 1ms, and the clock still reads 1ms once
// the stale 5ms entry has left the heap — Exit drops it, since nothing
// else is pending. Both arms count as events (the sleep is the third),
// neither as a spawn.
func TestTimerSupersededExpiryNeitherRunsNorMovesNow(t *testing.T) {
	v := NewVirtual()
	var at []time.Duration
	tm := v.NewTimer(runnerFunc(func() { at = append(at, v.Now()) }))
	v.Enter()
	tm.Reset(5 * time.Millisecond)
	tm.Reset(time.Millisecond)
	v.Sleep(time.Millisecond) // wakes behind the 1ms expiry
	v.Exit()
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
	v.Enter()
	tm.Reset(time.Millisecond)
	tm.Stop()
	v.Sleep(0) // wakes at once: the stopped expiry is still ahead of it
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
	v.Sleep(time.Millisecond) // wakes behind both expiries
	v.Exit()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Errorf("fired %v, want [b a]", order)
	}
	if now, sp := v.Now(), v.Spawns(); now != time.Millisecond || sp != 0 {
		t.Errorf("Now, Spawns = %v, %d, want 1ms, 0", now, sp)
	}
}

// A goroutine the clock did not spawn that detaches with a periodic Timer
// armed returns at once: its Exit hands the pump to a fresh clock
// goroutine (the one spawn), and the schedule keeps running behind it
// until the timer stops re-arming. Run inline instead, that Exit would
// never return — the timer's every tick pushes the next.
func TestExitHandsOffPumpWithPeriodicTimerArmed(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	ticks, stop := 0, false
	var tm *Timer
	tm = v.NewTimer(runnerFunc(func() {
		mu.Lock()
		ticks++
		done := stop
		mu.Unlock()
		if !done {
			tm.Reset(time.Millisecond)
		}
	}))
	tick := func() int {
		mu.Lock()
		defer mu.Unlock()
		return ticks
	}
	returned := make(chan struct{})
	go func() {
		v.Enter()
		tm.Reset(time.Millisecond)
		v.Exit()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Exit ran the periodic timer's schedule inline and never returned")
	}
	deadline := time.Now().Add(5 * time.Second)
	for tick() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("%d ticks after the detach: the schedule stopped with its goroutine", tick())
		}
		runtime.Gosched()
	}
	mu.Lock()
	stop = true
	mu.Unlock()
	for !v.Quiesced() {
		if time.Now().After(deadline) {
			t.Fatal("clock not quiesced after the timer stopped re-arming")
		}
		runtime.Gosched()
	}
	if sp := v.Spawns(); sp != 1 {
		t.Errorf("Spawns = %d, want 1 (the pump's hand-off)", sp)
	}
	if now, n := v.Now(), tick(); now != time.Duration(n)*time.Millisecond {
		t.Errorf("Now = %v after %d ticks, want one millisecond per tick", now, n)
	}
	if rep := v.Stop(); rep.Leaked != 0 {
		t.Errorf("after the hand-off: %v", rep)
	}
}

// A clock goroutine's final Exit still pumps inline: the Timer it armed
// runs on that same goroutine, and nothing is spawned beside it.
func TestExitOfClockGoroutinePumpsInline(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	var armedOn, ranOn uint64
	fired := false
	tm := v.NewTimer(runnerFunc(func() {
		mu.Lock()
		ranOn, fired = gid(), true
		mu.Unlock()
		cond.Broadcast()
	}))
	v.Enter()
	v.Go(func() {
		mu.Lock()
		armedOn = gid()
		mu.Unlock()
		tm.Reset(time.Millisecond)
	})
	mu.Lock()
	for !fired {
		cond.Wait()
	}
	mu.Unlock()
	v.Exit()
	if ranOn != armedOn {
		t.Error("the timer ran on another goroutine than the clock goroutine whose Exit found the schedule quiescent")
	}
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
