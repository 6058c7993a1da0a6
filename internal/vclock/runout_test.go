package vclock

import (
	"sync"
	"testing"
	"time"
)

// Go is GoAfter(0, fn): the spawn is an event at the current instant, so
// the spawner keeps running alone, and the child starts behind whatever
// was scheduled at that instant before it — never beside its spawner.
func TestGoStartsAtItsEvent(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var order []string
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	tm := v.NewTimer(runnerFunc(func() { record("timer") }))
	tm.Reset(0)
	v.Go(func() { record("go") })
	record("spawner")
	if sp := v.Spawns(); sp != 0 {
		t.Errorf("Spawns = %d before the spawner blocked, want 0: Go started its goroutine beside the spawner", sp)
	}
	v.Sleep(0) // lands behind the timer and the spawn
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != "spawner" || order[1] != "timer" || order[2] != "go" {
		t.Errorf("ran %v, want [spawner timer go]", order)
	}
	if ev, sp, now := v.Events(), v.Spawns(), v.Now(); ev != 3 || sp != 1 || now != 0 {
		t.Errorf("Events, Spawns, Now = %d, %d, %v, want 3, 1, 0", ev, sp, now)
	}
	if !v.Quiesced() {
		t.Error("clock not quiesced")
	}
}

// RunOut winds a world down on its caller: it sleeps past the latest live
// event, again for what that round scheduled, and returns once only
// superseded entries are left — which it drops, so they move the clock no
// more than the pump would — with the clock quiesced.
func TestRunOutWindsDownWhileAttached(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var ran []time.Duration
	stopped := v.NewTimer(runnerFunc(func() { t.Error("a stopped timer ran") }))
	v.RunOut() // nothing scheduled: returns at once
	stopped.Reset(50 * time.Millisecond)
	stopped.Stop()
	v.Go(func() {
		v.Sleep(2 * time.Millisecond)
		// Scheduled while RunOut waits for the 2ms event: a second round.
		v.GoAfter(3*time.Millisecond, func() {
			mu.Lock()
			ran = append(ran, v.Now())
			mu.Unlock()
		})
	})
	v.RunOut()
	if now := v.Now(); now != 5*time.Millisecond {
		t.Errorf("Now = %v after RunOut, want 5ms: the latest live event, not the stopped 50ms expiry", now)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0] != 5*time.Millisecond {
		t.Errorf("the late spawn ran at %v, want once at 5ms", ran)
	}
	if !v.Quiesced() {
		t.Errorf("clock not quiesced after RunOut: %v", v.Stop())
	}
	if sp := v.Spawns(); sp != 2 {
		t.Errorf("Spawns = %d, want 2 (the two spawns)", sp)
	}
}
