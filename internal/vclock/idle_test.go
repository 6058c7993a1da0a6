package vclock

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// The schedule advances only while some caller waits on it (see Virtual).
// These tests pin the rule from the side of a caller outside the clock:
// scheduling runs nothing, a wait runs the world up to its wake, and the
// world stays frozen between waits however much wall time passes. Run
// under -race -count=5 in CI with the Runner tests.

// frozenFor gives any goroutine that might still be moving the clock some
// wall time to do it, so an assertion that nothing moved means something.
func frozenFor() { time.Sleep(20 * time.Millisecond) }

// GoAfter, AfterRunner, Timer.Reset and Broadcast from an idle caller only
// add to the schedule: Now, Spawns and Wakes stay where they were until
// the caller waits, and then everything runs in (time, seq) order.
func TestIdleSchedulingRunsNothing(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	var ran []string
	note := func(s string) {
		mu.Lock()
		ran = append(ran, s)
		mu.Unlock()
	}
	woken := false
	v.Go(func() {
		mu.Lock()
		cond.Wait()
		woken = true
		mu.Unlock()
	})
	v.Sleep(0) // the waiter starts and blocks
	now0, sp0, wk0 := v.Now(), v.Spawns(), v.Wakes()

	v.GoAfter(time.Millisecond, func() { note("go") })
	v.AfterRunner(time.Millisecond, runnerFunc(func() { note("runner") }))
	v.NewTimer(runnerFunc(func() { note("timer") })).Reset(time.Millisecond)
	cond.Broadcast()
	frozenFor()
	mu.Lock()
	if len(ran) != 0 || woken {
		t.Errorf("scheduling from an idle caller ran %v (waiter woken: %v)", ran, woken)
	}
	mu.Unlock()
	if now, sp, wk := v.Now(), v.Spawns(), v.Wakes(); now != now0 || sp != sp0 || wk != wk0 {
		t.Errorf("Now, Spawns, Wakes = %v, %d, %d before any wait, want %v, %d, %d", now, sp, wk, now0, sp0, wk0)
	}

	v.Sleep(time.Millisecond) // lands behind all four
	mu.Lock()
	defer mu.Unlock()
	if !woken || len(ran) != 3 || ran[0] != "go" || ran[1] != "runner" || ran[2] != "timer" {
		t.Errorf("after the wait: ran %v, waiter woken %v; want [go runner timer] and woken", ran, woken)
	}
	if sp, wk := v.Spawns(), v.Wakes(); sp != sp0+1 || wk != wk0+2 {
		t.Errorf("Spawns, Wakes = %d, %d, want %d, %d (the GoAfter; the broadcast wake and the sleep)", sp, wk, sp0+1, wk0+2)
	}
}

// An idle caller's Sleep runs the world up to its wake and no further: a
// 1ms periodic timer first due now ticks exactly ten times during
// Sleep(10ms) — at 0 through 9ms; the 10ms tick was armed behind the
// sleeper's wake — and the world then stays frozen, live events and all,
// so the clock is not Quiesced until RunOut winds it down.
func TestIdleSleepRunsThenFreezes(t *testing.T) {
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
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return ticks
	}
	tm.Reset(0)
	v.Sleep(10 * time.Millisecond)
	if n := count(); n != 10 {
		t.Errorf("%d ticks during Sleep(10ms), want 10", n)
	}
	frozenFor()
	if n, now := count(), v.Now(); n != 10 || now != 10*time.Millisecond {
		t.Errorf("after the sleep returned: %d ticks, Now = %v; want the world frozen at 10 ticks, 10ms", n, now)
	}
	if v.Quiesced() {
		t.Error("Quiesced with the next tick pending")
	}
	if sp := v.Spawns(); sp != 0 {
		t.Errorf("Spawns = %d, want 0: nothing was handed off", sp)
	}

	mu.Lock()
	stop = true
	mu.Unlock()
	v.RunOut() // the pending tick runs and does not re-arm
	if n, now := count(), v.Now(); n != 11 || now != 10*time.Millisecond {
		t.Errorf("after RunOut: %d ticks, Now = %v; want 11, 10ms", n, now)
	}
	if !v.Quiesced() {
		t.Error("clock not quiesced after RunOut")
	}
}

// Stop still names a leaked goroutine by the site Go recorded, with no
// goroutine identity involved: the count and the site come from the spawn.
func TestStopNamesLeakedGoBySite(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	leak := func() {
		mu.Lock()
		cond.Wait()
		mu.Unlock()
	}
	v.Go(leak)
	v.Go(leak)
	v.Sleep(0)
	rep := v.Stop()
	if rep.Leaked != 2 || len(rep.Sites) != 1 || !strings.Contains(rep.Sites[0], "idle_test.go") || !strings.HasSuffix(rep.Sites[0], "×2") {
		t.Fatalf("report = %+v, want 2 leaks at one site in idle_test.go", rep)
	}
	cond.Broadcast()
	v.Sleep(0)
	if rep := v.Stop(); rep.Leaked != 0 || !v.Quiesced() {
		t.Errorf("after the unwind: %v, quiesced %v", rep, v.Quiesced())
	}
}
