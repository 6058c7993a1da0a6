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
	time.Sleep(10 * time.Millisecond)
	if hbs[0].Suspect("p2") {
		t.Error("p2 suspected while alive")
	}

	n.Crash(FDEndpoint("p2"))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if hbs[0].Suspect("p2") {
			return // strong completeness
		}
		time.Sleep(time.Millisecond)
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
	ids := []simnet.ProcessID{"a", "b"}
	epA := n.Register(FDEndpoint("a"))
	hbA := NewHeartbeat("a", epA, ids, HeartbeatConfig{Interval: time.Millisecond})
	hbA.Start()
	defer hbA.Stop()
	epB := n.Register(FDEndpoint("b"))

	// Manually send one late heartbeat from b after a has begun suspecting.
	time.Sleep(6 * time.Millisecond)
	if !hbA.Suspect("b") {
		t.Fatal("expected suspicion after missing heartbeats")
	}
	before := func() time.Duration {
		hbA.mu.Lock()
		defer hbA.mu.Unlock()
		return hbA.state["b"].timeout
	}()
	epB.Send(FDEndpoint("a"), "heartbeat", simnet.ProcessID("b"))
	n.Quiesce()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		hbA.mu.Lock()
		after := hbA.state["b"].timeout
		last := hbA.state["b"].lastSeen
		hbA.mu.Unlock()
		if after > before {
			// The late heartbeat proved the suspicion false: the timeout
			// doubled and b's freshness was re-established. b stays silent
			// afterwards, so the suspicion legitimately returns once the
			// doubled timeout elapses — on the virtual clock that can be
			// almost immediately in wall terms, so instead of asserting
			// "not suspected" at a racing instant, pin the predicate: a
			// suspicion may only be reported once the doubled timeout has
			// actually elapsed past the refreshed lastSeen.
			if hbA.Suspect("b") && hbA.clk.Now()-last <= after {
				t.Error("suspected b while its refreshed heartbeat was still within the adapted timeout")
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timeout did not adapt after false suspicion")
}

func TestFDEndpointNaming(t *testing.T) {
	if FDEndpoint("x") != "x/fd" {
		t.Errorf("FDEndpoint = %q", FDEndpoint("x"))
	}
}

// The receive side is the endpoint's handler, not a goroutine: Start
// spawns the sender only, and a heartbeat has been folded into the
// detector's state by the time the network reports the delivery settled.
// The clock is held throughout, so every step lands at a fixed virtual
// instant. Run under -race -count=5 in CI.
func TestHeartbeatHandlerRunsOnDelivery(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 3, MaxDelay: 200 * time.Microsecond})
	defer n.Close()
	clk := n.Clock()
	clk.Enter()
	defer clk.Exit()
	epA := n.Register(FDEndpoint("a"))
	epB := n.Register(FDEndpoint("b"))
	hb := NewHeartbeat("a", epA, []simnet.ProcessID{"b"}, HeartbeatConfig{Interval: time.Millisecond})
	hb.Start()
	defer hb.Stop()
	if sp := clk.Spawns(); sp != 1 {
		t.Errorf("Start spawned %d goroutines, want 1 (the sender)", sp)
	}

	clk.Sleep(6 * time.Millisecond) // b stays silent past the 3ms timeout
	if !hb.Suspect("b") {
		t.Fatal("silent peer not suspected")
	}
	epB.Send(FDEndpoint("a"), "heartbeat", simnet.ProcessID("b"))
	n.Quiesce()
	if hb.Suspect("b") {
		t.Error("still suspected after its heartbeat was delivered")
	}
	hb.mu.Lock()
	timeout := hb.state["b"].timeout
	hb.mu.Unlock()
	if timeout != 6*time.Millisecond {
		t.Errorf("timeout = %v, want 6ms (doubled by the late heartbeat)", timeout)
	}
	if sp := clk.Spawns(); sp != 1 {
		t.Errorf("%d goroutines spawned after a delivery, want still 1", sp)
	}
}

// A beat that lands before its receiver has started waits in the mailbox
// and is handled at Start.
func TestHeartbeatStartDrainsEarlyBeats(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 4, MaxDelay: 200 * time.Microsecond})
	defer n.Close()
	clk := n.Clock()
	clk.Enter()
	defer clk.Exit()
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
