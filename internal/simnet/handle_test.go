package simnet

import (
	"sync"
	"testing"
	"time"
)

// The delivery contract: a delivery is a callback on the clock's pump, and
// an endpoint with a handler gets its messages as calls, not wake-ups.
// The clock moves only inside a wait (Quiesce, Recv), so every step a test
// takes between two waits happens at one instant and none depends on how
// the host schedules. Run under -race -count=5 in CI.

// inbox collects what a handler saw, in call order.
type inbox struct {
	mu   sync.Mutex
	msgs []int
}

func (b *inbox) handle(m Message) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m.Payload.(int))
	b.mu.Unlock()
}

func (b *inbox) got() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.msgs...)
}

func wantInts(t *testing.T, what string, got []int, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
}

// Messages that arrived before Handle go through the handler first, in
// arrival order (a peer's first beat can land before the process starts);
// later deliveries are calls, made by the time Quiesce returns.
func TestHandleDrainsBacklogInArrivalOrder(t *testing.T) {
	// backlog sends 20 messages to b, which nobody is receiving on, and
	// returns with all of them in its mailbox.
	backlog := func() (n *Network, a, b *Endpoint) {
		n = New(Config{Seed: 41, MaxDelay: 300 * time.Microsecond})
		t.Cleanup(n.Close)
		a, b = n.Register("a"), n.Register("b")
		for i := 0; i < 20; i++ {
			a.Send("b", "m", i)
		}
		n.Quiesce()
		return n, a, b
	}
	// Random delays reordered the sends: arrival order is the mailbox's.
	_, _, b := backlog()
	var arrival []int
	for {
		m, ok := b.TryRecv()
		if !ok {
			break
		}
		arrival = append(arrival, m.Payload.(int))
	}
	if len(arrival) != 20 {
		t.Fatalf("%d of 20 messages arrived", len(arrival))
	}

	// Same seed, same sends: the same arrival order, now through Handle.
	n, a, b := backlog()
	var in inbox
	b.Handle(in.handle)
	wantInts(t, "backlog through the handler", in.got(), arrival...)
	if _, ok := b.TryRecv(); ok {
		t.Error("Handle left a message in the mailbox")
	}
	a.Send("b", "m", 20)
	n.Quiesce()
	wantInts(t, "after a live delivery", in.got(), append(arrival, 20)...)
}

// A crashed endpoint's handler gets no calls — not for traffic that lands
// while it is down, not after Restart: the handler died with the
// incarnation, and the one installed after Restart sees only what lands
// from then on.
func TestHandleCrashRestart(t *testing.T) {
	n := New(Config{Seed: 42, MaxDelay: 200 * time.Microsecond})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	var first, second inbox
	b.Handle(first.handle)
	a.Send("b", "m", 1)
	n.Quiesce()
	wantInts(t, "first incarnation", first.got(), 1)

	a.Send("b", "m", 2) // in the pipe when the crash lands
	n.Crash("b")
	a.Send("b", "m", 3) // lands while down
	n.Quiesce()
	if !n.Restart("b") {
		t.Fatal("Restart refused a crashed endpoint")
	}
	a.Send("b", "m", 4) // lands before the new incarnation installs its handler
	n.Quiesce()
	b.Handle(second.handle)
	a.Send("b", "m", 5)
	n.Quiesce()
	wantInts(t, "first incarnation after its crash", first.got(), 1)
	wantInts(t, "second incarnation", second.got(), 4, 5)
}

// Recv and Handle are two ways to consume one mailbox; mixing them is a bug.
func TestRecvOnHandledEndpointPanics(t *testing.T) {
	n := New(Config{Seed: 43})
	defer n.Close()
	b := n.Register("b")
	b.Handle(func(Message) {})
	defer func() {
		if recover() == nil {
			t.Error("Recv on a handled endpoint did not panic")
		}
	}()
	b.Recv()
}

// A storm of deliveries — into handlers and into mailboxes with blocked
// receivers, handlers sending replies from the pump — starts no goroutine
// and leaves nothing running.
func TestDeliveryStormLeavesNoLeak(t *testing.T) {
	n := New(Config{Seed: 44, MaxDelay: 200 * time.Microsecond})
	defer n.Close()
	const peers, rounds = 6, 200
	sink := n.Register("sink")
	var eps []*Endpoint
	for i := 0; i < peers; i++ {
		eps = append(eps, n.Register(ProcessID(rune('a'+i))))
	}
	for _, ep := range eps {
		ep := ep
		ep.Handle(func(m Message) { ep.Send("sink", "echo", m.Payload) })
	}
	clk := n.Clock()
	spawns := clk.Spawns()
	for i := 0; i < rounds; i++ {
		sink.Broadcast("m", i)
	}
	for i := 0; i < peers*rounds; i++ {
		if _, ok := sink.Recv(); !ok {
			t.Fatal("recv failed")
		}
	}
	n.Quiesce()
	if got := clk.Spawns() - spawns; got != 0 {
		t.Errorf("%d deliveries spawned %d goroutines", 2*peers*rounds, got)
	}
	if rep := clk.Stop(); rep.Leaked != 0 {
		t.Errorf("after the storm: %v", rep)
	}
	if !clk.Quiesced() {
		t.Error("clock not quiesced after the storm")
	}
}
