package simnet

import (
	"testing"
	"time"
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

// TestResetStreamsAllocFree pins the sweep path's per-seed stream cost:
// Reset re-seeds the recycled per-sender streams in place (one store
// each), so what a Reset allocates — the new clock and one cond per
// endpoint — does not depend on how many sender bases the network has.
// Four endpoints under one base and four endpoints under four bases must
// cost the same; a Reset that rebuilt its streams would differ by two
// objects a base.
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
		t.Fatalf("Reset allocates %.0f objects with four sender bases, %.0f with one: the streams are being rebuilt, not re-seeded", four, one)
	}
}
