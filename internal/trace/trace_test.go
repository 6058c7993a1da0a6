package trace

import (
	"errors"
	"sync"
	"testing"

	"xability/internal/event"
)

func TestObserveOrder(t *testing.T) {
	o := New()
	o.Observe(event.S("a", "1"))
	o.Observe(event.C("a", "2"))
	h := o.History()
	want := event.History{event.S("a", "1"), event.C("a", "2")}
	if !h.Equal(want) {
		t.Errorf("history = %v", h)
	}
	if o.Len() != 2 {
		t.Errorf("Len = %d", o.Len())
	}
}

func TestHistorySnapshotIsolation(t *testing.T) {
	o := New()
	o.Observe(event.S("a", "1"))
	h := o.History()
	o.Observe(event.C("a", "2"))
	if len(h) != 1 {
		t.Error("snapshot grew after later observations")
	}
	h[0] = event.C("x", "y")
	if !o.History()[0].Equal(event.S("a", "1")) {
		t.Error("mutating snapshot affected observer")
	}
}

func TestObserveWithAtomicity(t *testing.T) {
	o := New()
	err := o.ObserveWith(event.C("a", "v"), func() error { return nil })
	if err != nil || o.Len() != 1 {
		t.Errorf("successful ObserveWith: err=%v len=%d", err, o.Len())
	}
	sentinel := errors.New("effect refused")
	err = o.ObserveWith(event.C("b", "v"), func() error { return sentinel })
	if err != sentinel {
		t.Errorf("err = %v", err)
	}
	if o.Len() != 1 {
		t.Error("failed effect still emitted its event")
	}
}

func TestConcurrentObserversTotalOrder(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.Observe(event.S("a", "x"))
			}
		}()
	}
	wg.Wait()
	if o.Len() != writers*per {
		t.Errorf("observed %d events, want %d", o.Len(), writers*per)
	}
}

func TestReset(t *testing.T) {
	o := New()
	o.Observe(event.S("a", "1"))
	before := o.History()
	o.Reset()
	if o.Len() != 0 {
		t.Error("reset did not clear")
	}
	// The storage is reused; a snapshot taken before the Reset is not.
	o.Observe(event.S("b", "2"))
	if len(before) != 1 || before[0].Action != "a" {
		t.Errorf("a history taken before Reset changed to %v", before)
	}
}
