package simnet

import (
	"testing"
	"time"
)

// Endpoint.WaitRunner is Recv for a receiver on the clock's pump: the
// delivery, crash or close that would wake a goroutine blocked in Recv runs
// the Runner instead, at the same place in the schedule. Run under -race
// -count=5 in CI.

// stamp is where a receiver took a message: the virtual instant, the
// clock's event count at that moment (its place in the sequence) and the
// payload, -1 for the close.
type stamp struct {
	at  time.Duration
	seq uint64
	v   int
}

func stampNow(e *Endpoint, v int) stamp {
	clk := e.Clock()
	return stamp{clk.Now(), clk.Events(), v}
}

// drainer is a receiver as a Runner: each run takes the mailbox, then,
// unless the endpoint has closed, re-arms on it if rearm is set.
type drainer struct {
	ep    *Endpoint
	log   []stamp
	rearm bool
}

func (d *drainer) Run() {
	for {
		m, ok := d.ep.TryRecv()
		if !ok {
			break
		}
		d.log = append(d.log, stampNow(d.ep, m.Payload.(int)))
	}
	if d.ep.Closed() {
		d.log = append(d.log, stampNow(d.ep, -1))
		return
	}
	if d.rearm {
		d.ep.WaitRunner(d)
	}
}

// A Runner armed with WaitRunner takes every message, and the close, at the
// (time, seq) where a twin network's goroutine blocked in Recv takes it:
// bursts of one and of several messages, then a close with the mailbox
// empty. With no delay a burst lands at one instant, ahead of the wake its
// first delivery schedules, so one wake takes several messages.
func TestEndpointWaitRunnerWakesWhereRecvDoes(t *testing.T) {
	for _, maxDelay := range []time.Duration{0, 100 * time.Microsecond} {
		testWakesWhereRecvDoes(t, maxDelay)
	}
}

func testWakesWhereRecvDoes(t *testing.T, maxDelay time.Duration) {
	drive := func(start func(b *Endpoint) *[]stamp) []stamp {
		n := New(Config{Seed: 45, MaxDelay: maxDelay})
		a, b := n.Register("a"), n.Register("b")
		log := start(b)
		clk := n.Clock()
		v := 0
		for _, burst := range []int{1, 5, 3, 1} {
			for i := 0; i < burst; i++ {
				a.Send("b", "m", v)
				v++
			}
			clk.Sleep(150 * time.Microsecond)
		}
		n.Close()
		clk.RunOut()
		if !clk.Quiesced() {
			t.Fatalf("clock not quiesced after the close: %v", clk.Stop())
		}
		return *log
	}
	recv := drive(func(b *Endpoint) *[]stamp {
		var log []stamp
		b.Clock().Go(func() {
			for {
				m, ok := b.Recv()
				if !ok {
					log = append(log, stampNow(b, -1))
					return
				}
				log = append(log, stampNow(b, m.Payload.(int)))
			}
		})
		return &log
	})
	runner := drive(func(b *Endpoint) *[]stamp {
		d := &drainer{ep: b, rearm: true}
		b.Clock().AfterRunner(0, d) // where the goroutine's spawn was
		return &d.log
	})
	if len(recv) != 11 {
		t.Fatalf("the goroutine took %d messages and closes, want 10 and 1: %v", len(recv), recv)
	}
	if len(runner) != len(recv) {
		t.Fatalf("Runner took %v, goroutine %v", runner, recv)
	}
	for i := range recv {
		if runner[i] != recv[i] {
			t.Fatalf("max delay %v, step %d: Runner at %+v, goroutine at %+v", maxDelay, i, runner[i], recv[i])
		}
	}
	if maxDelay == 0 && recv[1].seq != recv[5].seq {
		t.Errorf("the burst of five took %v: not one wake", recv[1:6])
	}
}

// A mailbox that already holds a message runs the Runner at the current
// instant, as one event, instead of arming it on the cond; so does a
// closed endpoint. An empty open one arms it and pushes nothing.
func TestEndpointWaitRunnerRunsAtOnceOnBacklogOrClose(t *testing.T) {
	n := New(Config{Seed: 46, MaxDelay: 100 * time.Microsecond})
	a, b := n.Register("a"), n.Register("b")
	clk := n.Clock()
	a.Send("b", "m", 7)
	n.Quiesce() // delivered; nobody receives
	d := &drainer{ep: b, rearm: true}
	now, events := clk.Now(), clk.Events()
	b.WaitRunner(d)
	if got := clk.Events() - events; got != 1 {
		t.Fatalf("arming over a backlog pushed %d events, want 1", got)
	}
	if w := b.cond.Waiting(); w != 0 {
		t.Fatalf("%d waiter(s) on the cond, want 0: armed despite the backlog", w)
	}
	clk.Sleep(0)
	if len(d.log) != 1 || d.log[0].v != 7 || d.log[0].at != now {
		t.Fatalf("Runner took %v, want message 7 at %v", d.log, now)
	}
	// The run re-armed on the empty mailbox: a waiter, no event.
	if w := b.cond.Waiting(); w != 1 {
		t.Fatalf("%d waiter(s) after the drain, want 1", w)
	}
	events = clk.Events()
	n.Close()
	clk.RunOut()
	if len(d.log) != 2 || d.log[1].v != -1 {
		t.Fatalf("Runner took %v, want the close after message 7", d.log)
	}
	if got := clk.Events() - events; got != 2 {
		t.Errorf("the close cost %d events, want 2 (its wake and RunOut's sleep)", got)
	}
	// Armed on a closed endpoint, it runs at once and sees the close.
	b.WaitRunner(d)
	clk.RunOut()
	if len(d.log) != 3 || d.log[2].v != -1 {
		t.Fatalf("Runner took %v, want a second close", d.log)
	}
	if !clk.Quiesced() {
		t.Error("clock not quiesced")
	}
}

// An arm–deliver–drain cycle allocates nothing: the Runner is armed with a
// pooled waiter, the delivery is a pooled Runner and the message stays in
// the endpoint's ring until the drain takes it.
func TestEndpointWaitRunnerAllocFree(t *testing.T) {
	n := New(Config{Seed: 47, MaxDelay: 10 * time.Microsecond})
	defer n.Close()
	a, b := n.Register("a"), n.Register("b")
	d := &drainer{ep: b, log: make([]stamp, 0, 1)}
	var payload any = 1
	run := func() {
		d.log = d.log[:0]
		b.WaitRunner(d)
		a.Send("b", "m", payload)
		n.Quiesce()
		if len(d.log) != 1 {
			t.Fatalf("Runner took %v, want one message", d.log)
		}
	}
	for i := 0; i < 200; i++ {
		run() // warm the pools and the ring
	}
	if avg := testing.AllocsPerRun(1000, run); avg != 0 {
		t.Fatalf("arm, deliver and drain allocate %.2f objects per cycle, want 0", avg)
	}
}
