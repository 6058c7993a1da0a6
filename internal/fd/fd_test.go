package fd

import (
	"testing"
	"time"

	"xability/internal/simnet"
)

func TestScriptedBasics(t *testing.T) {
	d := NewScripted(nil)
	if d.Suspect("a") {
		t.Error("zero detector suspects")
	}
	d.SetSuspected("a", true)
	if !d.Suspect("a") {
		t.Error("explicit suspicion ignored")
	}
	d.SetSuspected("a", false)
	if d.Suspect("a") {
		t.Error("cleared suspicion persists")
	}
}

func TestScriptedStrongCompleteness(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	n.Register("a")
	d := NewScripted(n)
	if d.Suspect("a") {
		t.Error("live process suspected")
	}
	n.Crash("a")
	if !d.Suspect("a") {
		t.Error("crashed process not suspected (strong completeness)")
	}
}

func TestHeartbeatDetectsCrash(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 1})
	defer n.Close()
	clk := n.Clock()
	ids := []simnet.ProcessID{"p1", "p2"}
	var hbs []*Heartbeat
	for _, id := range ids {
		ep := n.Register(FDEndpoint(id))
		hb := NewHeartbeat(id, ep, ids, HeartbeatConfig{Interval: time.Millisecond})
		hb.Start()
		hbs = append(hbs, hb)
	}
	defer func() {
		for _, hb := range hbs {
			hb.Stop()
		}
	}()

	// Warm up: p1 should trust p2 while heartbeats flow.
	clk.Sleep(10 * time.Millisecond)
	if hbs[0].Suspect("p2") {
		t.Error("p2 suspected while alive")
	}

	n.Crash(FDEndpoint("p2"))
	crashed := clk.Now()
	for clk.Now()-crashed < time.Second {
		if hbs[0].Suspect("p2") {
			return // strong completeness
		}
		clk.Sleep(time.Millisecond)
	}
	t.Fatal("crashed peer never suspected")
}

func TestHeartbeatSelfUnknownPeer(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	ep := n.Register(FDEndpoint("solo"))
	hb := NewHeartbeat("solo", ep, []simnet.ProcessID{"solo"}, HeartbeatConfig{Interval: time.Millisecond})
	hb.Start()
	defer hb.Stop()
	if hb.Suspect("stranger") {
		t.Error("unknown peer suspected")
	}
}

func TestHeartbeatAdaptiveTimeout(t *testing.T) {
	// After a false suspicion (late heartbeat), the timeout must grow so
	// the same delay no longer triggers suspicion (eventual accuracy).
	n := simnet.New(simnet.Config{Seed: 2})
	defer n.Close()
	clk := n.Clock()
	ids := []simnet.ProcessID{"a", "b"}
	epA := n.Register(FDEndpoint("a"))
	hbA := NewHeartbeat("a", epA, ids, HeartbeatConfig{Interval: time.Millisecond})
	hbA.Start()
	defer hbA.Stop()
	epB := n.Register(FDEndpoint("b"))

	// Manually send one late heartbeat from b after a has begun suspecting.
	clk.Sleep(6 * time.Millisecond)
	if !hbA.Suspect("b") {
		t.Fatal("expected suspicion after missing heartbeats")
	}
	timeout := func() (time.Duration, time.Duration) {
		return hbA.state["b"].timeout, hbA.state["b"].lastSeen
	}
	before, _ := timeout()
	epB.Send(FDEndpoint("a"), "heartbeat", simnet.ProcessID("b"))
	n.Quiesce()
	after, last := timeout()
	if after <= before {
		t.Fatalf("timeout %v did not adapt after false suspicion (was %v)", after, before)
	}
	// The late heartbeat proved the suspicion false: b is trusted again
	// until the doubled timeout has elapsed past the refreshed lastSeen —
	// b stays silent afterwards, so then the suspicion legitimately returns.
	if hbA.Suspect("b") {
		t.Error("suspected b right after its late heartbeat was delivered")
	}
	clk.Sleep(last + after - clk.Now())
	if hbA.Suspect("b") {
		t.Error("suspected b while its refreshed heartbeat was still within the adapted timeout")
	}
	clk.Sleep(time.Microsecond)
	if !hbA.Suspect("b") {
		t.Error("b silent past the adapted timeout, but not suspected")
	}
}

func TestFDEndpointNaming(t *testing.T) {
	if FDEndpoint("x") != "x/fd" {
		t.Errorf("FDEndpoint = %q", FDEndpoint("x"))
	}
}

// Neither side of the detector is a goroutine: Start arms the sender's
// timer in place and installs the receive side as the endpoint's handler,
// so it spawns nothing, and a heartbeat has been folded into the
// detector's state by the time the network reports the delivery settled.
// The clock moves only inside the test's waits, so every step lands at a
// fixed virtual instant. Run under -race -count=5 in CI.
func TestHeartbeatHandlerRunsOnDelivery(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 3, MaxDelay: 200 * time.Microsecond})
	defer n.Close()
	clk := n.Clock()
	epA := n.Register(FDEndpoint("a"))
	epB := n.Register(FDEndpoint("b"))
	hb := NewHeartbeat("a", epA, []simnet.ProcessID{"b"}, HeartbeatConfig{Interval: time.Millisecond})
	hb.Start()
	defer hb.Stop()

	clk.Sleep(6 * time.Millisecond) // b stays silent past the 3ms timeout
	if sp := clk.Spawns(); sp != 0 {
		t.Errorf("Start spawned %d goroutines, want 0", sp)
	}
	if !hb.Suspect("b") {
		t.Fatal("silent peer not suspected")
	}
	epB.Send(FDEndpoint("a"), "heartbeat", simnet.ProcessID("b"))
	n.Quiesce()
	if hb.Suspect("b") {
		t.Error("still suspected after its heartbeat was delivered")
	}
	if timeout := hb.state["b"].timeout; timeout != 6*time.Millisecond {
		t.Errorf("timeout = %v, want 6ms (doubled by the late heartbeat)", timeout)
	}
	if sp := clk.Spawns(); sp != 0 {
		t.Errorf("%d goroutines spawned after a delivery, want still 0", sp)
	}
}

// A beat that lands before its receiver has started waits in the mailbox
// and is handled at Start.
func TestHeartbeatStartDrainsEarlyBeats(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 4, MaxDelay: 200 * time.Microsecond})
	defer n.Close()
	clk := n.Clock()
	epA := n.Register(FDEndpoint("a"))
	epB := n.Register(FDEndpoint("b"))
	hb := NewHeartbeat("a", epA, []simnet.ProcessID{"b"}, HeartbeatConfig{Interval: time.Millisecond})
	clk.Sleep(6 * time.Millisecond)
	epB.Send(FDEndpoint("a"), "heartbeat", simnet.ProcessID("b"))
	n.Quiesce() // delivered into the mailbox: nobody is receiving yet
	if !hb.Suspect("b") {
		t.Fatal("the beat reached the detector before Start")
	}
	hb.Start()
	defer hb.Stop()
	if hb.Suspect("b") {
		t.Error("Start did not handle the beat waiting in the mailbox")
	}
}
