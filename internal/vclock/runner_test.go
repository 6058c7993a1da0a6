package vclock

import (
	"sync"
	"testing"
	"time"
)

// The Runner contract (see Runner): Run executes on the pump, inside
// whichever goroutine's clock call found the schedule quiescent. These
// tests pin what that forces on the clock and what it must leave alone.
// Run under -race -count=5 in CI.

// runnerFunc adapts a func to Runner for tests.
type runnerFunc func()

func (f runnerFunc) Run() { f() }

// A Runner may take a lock that the pumping goroutine is about to wait on:
// a cond wait registers the waiter, releases the user's lock and only then
// gives up runnability — the step that pumps. Here the waiter is the only
// attached goroutine, so its own Wait pumps the Runner; with the pump
// running under the user's lock (the old order) this self-deadlocks.
func TestRunnerMayLockWhatTheWaiterWaitsOn(t *testing.T) {
	v := NewVirtual()
	var l sync.Mutex
	cond := v.NewCond(&l)
	ready := false
	done := make(chan struct{})
	v.Go(func() {
		l.Lock()
		v.AfterRunner(time.Millisecond, runnerFunc(func() {
			l.Lock()
			ready = true
			l.Unlock()
			cond.Broadcast()
		}))
		for !ready {
			cond.Wait()
		}
		l.Unlock()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter's own pump ran the Runner under the waiter's lock")
	}
	if now := v.Now(); now != time.Millisecond {
		t.Errorf("Now = %v, want 1ms", now)
	}
}

// Runners scheduled for one instant run in scheduling order, interleaved
// with spawned callbacks exactly where their sequence numbers put them,
// and each costs one event and no goroutine — the event count is what the
// spawning clock produced for the same calls.
func TestRunnersRunInSchedulingOrder(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var order []int
	note := func(i int) func() {
		return func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	v.Enter() // hold the schedule so all six share one instant
	for i := 0; i < 6; i++ {
		if i == 2 || i == 4 {
			wg.Add(1)
			fn := note(i)
			v.GoAfter(time.Millisecond, func() { defer wg.Done(); fn() })
		} else {
			v.AfterRunner(time.Millisecond, runnerFunc(note(i)))
		}
	}
	v.Sleep(time.Millisecond) // lands behind all six at the same instant
	v.Exit()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i := range order {
		if order[i] != i {
			t.Fatalf("run order = %v, want scheduling order 0..5", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("%d of 6 callbacks ran by the time the sleeper behind them woke", len(order))
	}
	if ev := v.Events(); ev != 7 {
		t.Errorf("Events = %d, want 7 (six callbacks and the sleep)", ev)
	}
	if sp := v.Spawns(); sp != 2 {
		t.Errorf("Spawns = %d, want 2 (the GoAfter callbacks; a Runner has no goroutine)", sp)
	}
}

// Run may schedule: the events fire after it returns, the clock does not
// re-enter the pump underneath it, and nothing stays attached afterwards.
func TestRunnerMaySchedule(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	hops := 0
	var hop runnerFunc
	hop = func() {
		mu.Lock()
		hops++
		last := hops == 100
		mu.Unlock()
		if last {
			cond.Broadcast()
			return
		}
		v.AfterRunner(time.Microsecond, hop)
	}
	v.Enter()
	v.AfterRunner(0, hop)
	mu.Lock()
	for hops < 100 {
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
		t.Errorf("Spawns = %d, want 0", sp)
	}
}
