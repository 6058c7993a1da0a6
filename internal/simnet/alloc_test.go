package simnet

import (
	"testing"
	"time"

	"xability/internal/vclock"
)

// TestSendRecvAllocBudget pins the network's hot path: one Send plus the
// matching Recv. With interned process indexes (dense crash/counter/stream
// slices instead of per-send map hashing), pooled delivery Runners, pooled
// clock events/waiters, ring-buffer mailboxes, and the delivery run on the
// clock's pump instead of a goroutine of its own, the steady state costs
// no allocation. The budget (0.5) fails loudly if a spawn, map, closure, or
// per-message envelope sneaks back in (the path once cost 11 allocations
// per round trip, and 1 — the delivery goroutine — until PR 22).
//
// The payload is pre-boxed: boxing a value into `any` is the caller's
// allocation, not the network's.
func TestSendRecvAllocBudget(t *testing.T) {
	n := New(Config{Seed: 1, MaxDelay: 10 * time.Microsecond})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	var payload any = "x"
	run := func() {
		a.Send("b", "m", payload)
		if _, ok := b.Recv(); !ok {
			t.Fatal("recv failed")
		}
	}
	for i := 0; i < 200; i++ {
		run() // warm pools and ring buffers
	}
	avg := testing.AllocsPerRun(1000, run)
	if avg > 0.5 {
		t.Fatalf("Send+Recv allocates %.2f objects/op in steady state, budget 0.5 (nothing per message)", avg)
	}
}

// TestBroadcastAllocBudget pins fan-out: a 6-peer broadcast plus receives
// allocates nothing either — no spawn per delivery and no per-peer
// bookkeeping (the registration-order snapshot is read without copying).
func TestBroadcastAllocBudget(t *testing.T) {
	n := New(Config{Seed: 1, MaxDelay: 10 * time.Microsecond})
	defer n.Close()
	src := n.Register("src")
	var eps []*Endpoint
	for i := 0; i < 6; i++ {
		eps = append(eps, n.Register(ProcessID(rune('a'+i))))
	}
	var payload any = "x"
	run := func() {
		src.Broadcast("m", payload)
		for _, ep := range eps {
			if _, ok := ep.Recv(); !ok {
				t.Fatal("recv failed")
			}
		}
	}
	for i := 0; i < 100; i++ {
		run()
	}
	avg := testing.AllocsPerRun(500, run)
	if avg > 0.5 {
		t.Fatalf("6-peer broadcast allocates %.2f objects/op in steady state, budget 0.5 (nothing per delivery)", avg)
	}
}

// TestResetStreamsAllocFree pins the per-seed stream cost of a Reset onto
// a fresh clock: Reset re-seeds the network's one delay stream in place
// (one store), so what it allocates — the new clock, the idle cond and one
// cond per endpoint — does not depend on how many bases the network has.
// Four endpoints under one base and four endpoints under four bases must
// cost the same; per-base state built at Reset would make them differ.
// The sweep path resets onto the clock it already runs on, which costs
// nothing at all (TestResetSameClockAllocFree).
func TestResetStreamsAllocFree(t *testing.T) {
	resetAllocs := func(ids ...ProcessID) float64 {
		cfg := Config{Seed: 1, MaxDelay: 10 * time.Microsecond}
		n := New(cfg)
		for _, id := range ids {
			n.Register(id)
		}
		n.Close()
		return testing.AllocsPerRun(100, func() {
			cfg.Seed++
			if !n.Reset(cfg) {
				t.Fatal("Reset refused a closed virtual-clock network")
			}
			n.Close()
		})
	}
	one := resetAllocs("a", "a/fd", "a/cons", "a/aux")
	four := resetAllocs("a", "b", "c", "d")
	if four != one {
		t.Fatalf("Reset allocates %.0f objects with four bases, %.0f with one: Reset builds per-base state", four, one)
	}
}

// TestResetSameClockAllocFree pins the sweep path's Reset: a worker rewinds
// its one clock (vclock.Virtual.Reset) and resets its networks onto it, so
// the endpoint conds and the idle cond are kept — their waiter lists are
// empty on a quiesced clock — and a Reset of a 4-endpoint network
// allocates nothing.
func TestResetSameClockAllocFree(t *testing.T) {
	cfg := Config{Seed: 1, MaxDelay: 10 * time.Microsecond, Clock: vclock.NewVirtual()}
	n := New(cfg)
	for _, id := range []ProcessID{"a", "a/fd", "b", "b/fd"} {
		n.Register(id)
	}
	n.Close()
	cond := n.eps[0].cond
	avg := testing.AllocsPerRun(100, func() {
		if !cfg.Clock.Reset() {
			t.Fatal("clock Reset refused a quiesced clock")
		}
		cfg.Seed++
		if !n.Reset(cfg) {
			t.Fatal("Reset refused a closed network on a quiesced clock")
		}
		n.Close()
	})
	if avg != 0 {
		t.Fatalf("same-clock Reset allocates %.2f objects, want 0", avg)
	}
	if n.eps[0].cond != cond {
		t.Error("same-clock Reset rebuilt the endpoint conds")
	}
}
