package vclock

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// A goroutine attached via Go that never unwinds must show up in Stop's
// audit with the spawn site — the attachment-leak failure mode that
// otherwise presents as a hung sweep.
func TestStopReportsLeakedGoroutine(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	v.Go(func() { // leaked: nobody ever broadcasts
		mu.Lock()
		cond.Wait()
		mu.Unlock()
	})
	// Virtual time can only advance once the leaked goroutine has parked
	// in its cond wait, so after this Sleep the ledger state is settled.
	v.Sleep(time.Millisecond)
	rep := v.Stop()
	if rep.Leaked != 1 {
		t.Fatalf("Leaked = %d, want 1 (%s)", rep.Leaked, rep)
	}
	if len(rep.Sites) != 1 || !strings.Contains(rep.Sites[0], "stop_test.go") {
		t.Fatalf("Sites = %v, want the v.Go call site in stop_test.go", rep.Sites)
	}
	if s := rep.String(); !strings.Contains(s, "1 leaked goroutine") {
		t.Fatalf("String() = %q", s)
	}
	cond.Broadcast() // unwind the goroutine so the test exits clean
}

// GoAfter-scheduled goroutines carry their scheduling site through the
// event into the ledger.
func TestStopReportsGoAfterSite(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	v.GoAfter(time.Millisecond, func() {
		mu.Lock()
		cond.Wait()
		mu.Unlock()
	})
	v.Sleep(2 * time.Millisecond)
	rep := v.Stop()
	if rep.Leaked != 1 || len(rep.Sites) != 1 || !strings.Contains(rep.Sites[0], "stop_test.go") {
		t.Fatalf("report = %+v, want 1 leak sited in stop_test.go", rep)
	}
	cond.Broadcast()
}

// A clock whose goroutines all unwound reports a clean shutdown.
func TestStopCleanReportsZero(t *testing.T) {
	v := NewVirtual()
	v.Go(func() { v.Sleep(time.Millisecond) })
	v.Sleep(5 * time.Millisecond)
	if rep := v.Stop(); rep.Leaked != 0 || len(rep.Sites) != 0 {
		t.Fatalf("report = %+v, want clean", rep)
	}
	if s := (LeakReport{}).String(); !strings.Contains(s, "no leaked") {
		t.Fatalf("String() = %q", s)
	}
}

// The caller's own attachment is teardown business, not a leak: clusters
// Stop while attached.
func TestStopExcludesCaller(t *testing.T) {
	v := NewVirtual()
	v.Enter()
	defer v.Exit()
	if rep := v.Stop(); rep.Leaked != 0 {
		t.Fatalf("report = %+v, want the caller's attachment excluded", rep)
	}
}
