package simnet

import (
	"sync"
	"testing"
	"time"
)

func TestSendRecv(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	a.Send("b", "ping", 42)
	msg, ok := b.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	if msg.From != "a" || msg.To != "b" || msg.Type != "ping" || msg.Payload.(int) != 42 {
		t.Errorf("msg = %+v", msg)
	}
}

func TestReliableDelivery(t *testing.T) {
	n := New(Config{Seed: 2, MinDelay: 0, MaxDelay: 500 * time.Microsecond})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	const count = 200
	for i := 0; i < count; i++ {
		a.Send("b", "m", i)
	}
	seen := make(map[int]bool)
	for i := 0; i < count; i++ {
		msg, ok := b.Recv()
		if !ok {
			t.Fatal("recv failed early")
		}
		v := msg.Payload.(int)
		if seen[v] {
			t.Fatalf("duplicate delivery of %d", v)
		}
		seen[v] = true
	}
	if len(seen) != count {
		t.Errorf("delivered %d distinct messages, want %d", len(seen), count)
	}
}

func TestCrashDropsTraffic(t *testing.T) {
	n := New(Config{Seed: 3})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	n.Crash("b")
	a.Send("b", "m", 1) // silently dropped
	n.Quiesce()
	if _, ok := b.TryRecv(); ok {
		t.Error("crashed endpoint received a message")
	}
	// Crashed sender drops too.
	n.Crash("a")
	a.Send("b", "m", 2)
	if n.SentBy("a") != 1 {
		t.Errorf("crashed sender counted %d sends, want 1 (pre-crash only)", n.SentBy("a"))
	}
	if !n.Crashed("a") || !n.Crashed("b") {
		t.Error("crash flags wrong")
	}
}

func TestCrashIdempotentAndUnknownSafe(t *testing.T) {
	n := New(Config{Seed: 30})
	defer n.Close()
	a := n.Register("a")
	n.Register("b")

	// Crash of a process that was never registered must not panic, and the
	// crash must stick (a send to it would stay dropped).
	n.Crash("ghost")
	if !n.Crashed("ghost") {
		t.Error("crash of unknown process not recorded")
	}
	n.Crash("ghost") // double crash of unknown: still a no-op

	// Double crash of a live process is idempotent.
	a.Send("b", "m", 1)
	n.Crash("b")
	n.Crash("b")
	if !n.Crashed("b") {
		t.Error("b not crashed")
	}
	n.Quiesce()
	if _, ok := n.byName["b"].TryRecv(); ok {
		t.Error("crashed endpoint received a message")
	}

	// Concurrent double crash: must not race or panic.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Crash("a")
		}()
	}
	wg.Wait()
	if !n.Crashed("a") {
		t.Error("a not crashed")
	}
}

func TestPartitionBlackHolesAcrossGroups(t *testing.T) {
	n := New(Config{Seed: 31, MaxDelay: 100 * time.Microsecond})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	c := n.Register("c")

	n.Partition([]ProcessID{"a"}, []ProcessID{"b", "c"})
	a.Send("b", "m", 1) // crosses the cut: lost
	b.Send("c", "m", 2) // same side: delivered
	n.Quiesce()
	if _, ok := b.TryRecv(); ok {
		t.Error("message crossed the partition")
	}
	if _, ok := c.TryRecv(); !ok {
		t.Error("same-side message lost")
	}

	// Heal: traffic flows again, but the black-holed message stays lost.
	n.Heal()
	a.Send("b", "m", 3)
	n.Quiesce()
	msg, ok := b.TryRecv()
	if !ok || msg.Payload.(int) != 3 {
		t.Errorf("post-heal delivery = %+v, %v", msg, ok)
	}
}

func TestPartitionCoversAuxiliaryEndpoints(t *testing.T) {
	n := New(Config{Seed: 32})
	defer n.Close()
	n.Register("a")
	afd := n.Register("a/fd")
	bfd := n.Register("b/fd")
	n.Register("b")

	n.Partition([]ProcessID{"a"}, []ProcessID{"b"})
	afd.Send("b/fd", "hb", 1) // aux endpoints follow their base process
	n.Quiesce()
	if _, ok := bfd.TryRecv(); ok {
		t.Error("partition did not cover auxiliary endpoints")
	}
	// A process always reaches its own endpoints.
	afd.Send("a", "self", 1)
	n.Quiesce()
	if _, ok := n.byName["a"].TryRecv(); !ok {
		t.Error("self traffic blocked by partition")
	}
}

func TestPartitionDropsInFlightTraffic(t *testing.T) {
	// A message in the pipe when the cut lands is lost: the link is down at
	// its delivery instant.
	n := New(Config{Seed: 33, MinDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	// Attached, so the clock cannot advance to the delivery between the
	// send and the cut.
	n.Clock().Enter()
	a.Send("b", "m", 1)
	n.Partition([]ProcessID{"a"}, []ProcessID{"b"}) // before delivery fires
	n.Quiesce()
	n.Clock().Exit()
	if _, ok := b.TryRecv(); ok {
		t.Error("in-flight message survived the partition")
	}
}

func TestDropLinkIsBidirectionalAndHealable(t *testing.T) {
	n := New(Config{Seed: 34})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	c := n.Register("c")

	n.DropLink("a", "b")
	a.Send("b", "m", 1)
	b.Send("a", "m", 2)
	a.Send("c", "m", 3) // other links unaffected
	n.Quiesce()
	if _, ok := b.TryRecv(); ok {
		t.Error("a→b not black-holed")
	}
	if _, ok := a.TryRecv(); ok {
		t.Error("b→a not black-holed")
	}
	if _, ok := c.TryRecv(); !ok {
		t.Error("unrelated link affected")
	}
	n.Heal()
	a.Send("b", "m", 4)
	n.Quiesce()
	if _, ok := b.TryRecv(); !ok {
		t.Error("link not healed")
	}
}

func TestDelayScaleStretchesDeliveries(t *testing.T) {
	n := New(Config{Seed: 35, MinDelay: 100 * time.Microsecond, MaxDelay: 200 * time.Microsecond})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	clk := n.Clock()

	n.SetDelayScale(100)
	start := clk.Now()
	a.Send("b", "m", 1)
	if _, ok := b.Recv(); !ok {
		t.Fatal("recv failed")
	}
	if got := clk.Now() - start; got < 10*time.Millisecond {
		t.Errorf("stormed delivery took %v, want ≥ 10ms of simulated time", got)
	}

	n.SetDelayScale(1) // calm again
	start = clk.Now()
	a.Send("b", "m", 2)
	if _, ok := b.Recv(); !ok {
		t.Fatal("recv failed")
	}
	if got := clk.Now() - start; got > time.Millisecond {
		t.Errorf("calm delivery took %v, want < 1ms", got)
	}
}

func TestDelayDistributions(t *testing.T) {
	const sends = 400
	measure := func(cfg Config) []time.Duration {
		n := New(cfg)
		defer n.Close()
		a := n.Register("a")
		b := n.Register("b")
		clk := n.Clock()
		var delays []time.Duration
		for i := 0; i < sends; i++ {
			start := clk.Now()
			a.Send("b", "m", i)
			if _, ok := b.Recv(); !ok {
				t.Fatal("recv failed")
			}
			delays = append(delays, clk.Now()-start)
		}
		return delays
	}

	span := Config{Seed: 36, MinDelay: 100 * time.Microsecond, MaxDelay: 200 * time.Microsecond}

	t.Run("asymmetric-is-fixed-per-link", func(t *testing.T) {
		cfg := span
		cfg.Dist = DelayAsymmetric
		delays := measure(cfg)
		for _, d := range delays {
			if d != delays[0] {
				t.Fatalf("asymmetric link delay varies: %v vs %v", d, delays[0])
			}
		}
		if delays[0] < cfg.MinDelay || delays[0] >= cfg.MaxDelay {
			t.Errorf("asymmetric delay %v outside [%v, %v)", delays[0], cfg.MinDelay, cfg.MaxDelay)
		}
	})

	t.Run("asymmetric-differs-by-direction", func(t *testing.T) {
		cfg := span
		cfg.Dist = DelayAsymmetric
		n := New(cfg)
		defer n.Close()
		a := n.Register("a")
		b := n.Register("b")
		clk := n.Clock()
		start := clk.Now()
		a.Send("b", "m", 1)
		b.Recv()
		ab := clk.Now() - start
		start = clk.Now()
		b.Send("a", "m", 2)
		a.Recv()
		ba := clk.Now() - start
		if ab == ba {
			t.Errorf("a→b and b→a share delay %v; expected asymmetry", ab)
		}
	})

	t.Run("pareto-has-heavy-tail", func(t *testing.T) {
		cfg := span
		cfg.Dist = DelayPareto
		delays := measure(cfg)
		over := 0
		for _, d := range delays {
			if d < cfg.MinDelay {
				t.Fatalf("pareto delay %v below MinDelay", d)
			}
			if d > cfg.MaxDelay {
				over++
			}
		}
		if over == 0 {
			t.Error("no pareto draw exceeded MaxDelay; tail missing")
		}
		bound := cfg.MinDelay + 32*(cfg.MaxDelay-cfg.MinDelay)
		for _, d := range delays {
			if d > bound {
				t.Fatalf("pareto delay %v exceeds default cap %v", d, bound)
			}
		}
	})

	t.Run("seeded-replay", func(t *testing.T) {
		for _, dist := range []DelayDist{DelayUniform, DelayAsymmetric, DelayPareto} {
			cfg := span
			cfg.Dist = dist
			first := measure(cfg)
			second := measure(cfg)
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("dist %d: delay %d differs across replays: %v vs %v", dist, i, first[i], second[i])
				}
			}
		}
	})
}

func TestCrashUnblocksReceivers(t *testing.T) {
	n := New(Config{Seed: 4})
	defer n.Close()
	b := n.Register("b")
	done := make(chan bool, 1)
	go func() {
		_, ok := b.Recv()
		done <- ok
	}()
	time.Sleep(time.Millisecond)
	n.Crash("b")
	select {
	case ok := <-done:
		if ok {
			t.Error("recv on crashed endpoint returned ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv did not unblock on crash")
	}
}

func TestBroadcast(t *testing.T) {
	n := New(Config{Seed: 5})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	c := n.Register("c")
	a.Broadcast("hello", "x")
	n.Quiesce()
	if _, ok := b.TryRecv(); !ok {
		t.Error("b missed broadcast")
	}
	if _, ok := c.TryRecv(); !ok {
		t.Error("c missed broadcast")
	}
	if _, ok := a.TryRecv(); ok {
		t.Error("broadcast echoed to sender")
	}
}

func TestCounters(t *testing.T) {
	n := New(Config{Seed: 6})
	defer n.Close()
	a := n.Register("a")
	n.Register("b")
	for i := 0; i < 5; i++ {
		a.Send("b", "m", i)
	}
	if n.SentBy("a") != 5 {
		t.Errorf("SentBy = %d", n.SentBy("a"))
	}
	if n.TotalSent() != 5 {
		t.Errorf("TotalSent = %d", n.TotalSent())
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.Register("a")
	defer func() {
		if recover() == nil {
			t.Error("duplicate register did not panic")
		}
	}()
	n.Register("a")
}

func TestSendToUnknownPanics(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Register("a")
	defer func() {
		if recover() == nil {
			t.Error("send to unknown did not panic")
		}
	}()
	a.Send("ghost", "m", nil)
}

func TestConcurrentSenders(t *testing.T) {
	n := New(Config{Seed: 7, MaxDelay: 100 * time.Microsecond})
	defer n.Close()
	dst := n.Register("dst")
	var wg sync.WaitGroup
	const senders, per = 8, 50
	for s := 0; s < senders; s++ {
		ep := n.Register(ProcessID(rune('a' + s)))
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ep.Send("dst", "m", i)
			}
		}(ep)
	}
	wg.Wait()
	got := 0
	for got < senders*per {
		if _, ok := dst.Recv(); !ok {
			t.Fatal("recv failed")
		}
		got++
	}
	if n.TotalSent() != senders*per {
		t.Errorf("TotalSent = %d", n.TotalSent())
	}
}

func TestProcessesListing(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.Register("a")
	n.Register("b")
	if got := len(n.Processes()); got != 2 {
		t.Errorf("Processes = %d", got)
	}
}

func TestCloseUnblocksAll(t *testing.T) {
	n := New(Config{})
	a := n.Register("a")
	done := make(chan struct{})
	go func() {
		a.Recv()
		close(done)
	}()
	time.Sleep(time.Millisecond)
	n.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock receiver")
	}
	n.Close() // idempotent
}
