package scenario

import "testing"

// TestDelayStormHeartbeatRecoversXAbility is the end-to-end ◇P test: the
// delay-storm schedule runs against the *real* heartbeat failure detectors
// — no scripted suspicion pulses anywhere. The storm stretches heartbeat
// gaps past the suspicion timeout, so replicas and client genuinely
// (falsely) suspect each other mid-run, dragging the protocol toward its
// active flavor; each false suspicion doubles the suspected peer's timeout
// (the eventual-accuracy path), and once the timeout outgrows the storm
// the run must settle back to exactly-once.
func TestDelayStormHeartbeatRecoversXAbility(t *testing.T) {
	sc, ok := Get("delay-storm-hb")
	if !ok {
		t.Fatal("delay-storm-hb not registered")
	}
	stormBit := false
	for seed := int64(1); seed <= 8; seed++ {
		o := Execute(sc, seed)
		if !o.XAble || !o.Replied {
			t.Errorf("seed %d: x-able=%v replied=%v — accuracy did not recover: %+v",
				seed, o.XAble, o.Replied, o.Report)
		}
		if o.EffectsInForce != 1 {
			t.Errorf("seed %d: effects in force = %d, want exactly 1", seed, o.EffectsInForce)
		}
		// The storm must actually bite: concurrent executions (replica-side
		// false suspicions) or client failovers (client-side ones).
		if o.Executions >= 2 || o.Attempts >= 2 {
			stormBit = true
		}
	}
	if !stormBit {
		t.Error("no seed showed storm-induced suspicions; the scenario is not exercising the ◇P path")
	}
}

// TestPartitionHeartbeatRecoversXAbility closes the heartbeat-partition
// row: the owner is cut off under *real* ◇P detectors — no scripted
// suspicion anywhere — so the suspicion that lets the majority move on
// arises endogenously from starved heartbeats, and after the heal the
// resumed beats (with doubled timeouts) restore accuracy. X-ability must
// recover end to end on every seed.
func TestPartitionHeartbeatRecoversXAbility(t *testing.T) {
	sc, ok := Get("partition-hb")
	if !ok {
		t.Fatal("partition-hb not registered")
	}
	cutBit := false
	for seed := int64(1); seed <= 8; seed++ {
		o := Execute(sc, seed)
		if !o.XAble || !o.Replied {
			t.Errorf("seed %d: x-able=%v replied=%v — x-ability did not recover after heal: %+v",
				seed, o.XAble, o.Replied, o.Report)
		}
		if o.EffectsInForce != 1 {
			t.Errorf("seed %d: effects in force = %d, want exactly 1", seed, o.EffectsInForce)
		}
		// The cut must actually bite: the isolated owner forces client
		// failover (extra attempts) or a second executor.
		if o.Executions >= 2 || o.Attempts >= 2 {
			cutBit = true
		}
	}
	if !cutBit {
		t.Error("no seed showed partition-induced suspicion; the scenario is not exercising the ◇P path")
	}
}

// TestPartitionHeartbeatSweep is the claim-at-scale version of the
// heartbeat-partition row.
func TestPartitionHeartbeatSweep(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 15
	}
	sc, _ := Get("partition-hb")
	d := Sweep(sc, Seeds(900, n), 0)
	if d.XAbleRate() != 1.0 || d.RepliedRate() != 1.0 {
		t.Errorf("x-able %.4f replied %.4f over %d seeds, want 1.0; failing: %v",
			d.XAbleRate(), d.RepliedRate(), d.Runs, d.Failing)
	}
	if d.Effects[1] != n {
		t.Errorf("effects histogram %v, want all mass on 1", d.Effects)
	}
}

// TestDelayStormHeartbeatSweep is the claim-at-scale version: a seed
// population of the heartbeat storm must hold at rate 1.0.
func TestDelayStormHeartbeatSweep(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 15
	}
	sc, _ := Get("delay-storm-hb")
	d := Sweep(sc, Seeds(300, n), 0)
	if d.XAbleRate() != 1.0 || d.RepliedRate() != 1.0 {
		t.Errorf("x-able %.4f replied %.4f over %d seeds, want 1.0; failing: %v",
			d.XAbleRate(), d.RepliedRate(), d.Runs, d.Failing)
	}
	if d.Effects[1] != n {
		t.Errorf("effects histogram %v, want all mass on 1", d.Effects)
	}
}

// TestDeliveriesSpawnNoGoroutines gates what a message costs the host, in
// counts the clock keeps (vclock.Virtual's Spawns, Wakes and Events), so
// it holds on any runner: a delay-storm-hb seed is ≈600 messages, most of
// them heartbeats, and neither a delivery nor a heartbeat — its receipt or
// its send — may start or wake a goroutine. What is spawned is the plan's
// and the watchdog's timers, the request and the cleaners' takeovers —
// 5–7 a seed, however many messages the seed sends (when a delivery was a
// goroutine and each detector had a receiver, ≈620; 18–19 while the
// driver let go of a running world and the clock handed its pump to a
// goroutine of its own, twice a run; 16–17 while each heartbeat sender and
// cleaner was armed from a goroutine of its own; 8–10 while each server's
// receive loop was a goroutine). What is woken is what still waits in a
// clock primitive — the driver, the client, the executions' retry sleeps:
// 29–32 on seeds 1–4 (27–32 with the watcher below), against 44–54 while
// the servers' receive loops woke for every submit and announce, and
// 291–321 while the senders and cleaners woke for every period. Events
// are pinned exactly: one per message plus the timers, spawns and wake-ups
// (seeds 1–4: 968/938/968/968; 913/943/970/943 while a per-request watcher
// answered owed clients: seed 1's client is now left to the takeover of a
// falsely suspected owner's round, whose result the watcher's first look
// had forwarded, and is answered 1 ms later; seed 4's client retries three
// times more, since the watcher had re-sent a result already answered and
// that copy ended its wait; seeds 2 and 3 lose the watcher's timer ticks.
// Seed 1 read 932 while the senders and cleaners were armed from
// goroutines and the network drew each sender's delays from a stream of
// its own, 918 while a Go spawn was not an event of its own, 1 490 when
// each heartbeat also woke a receiver; a receive loop's first run sits
// where its spawn was and its wakes where the goroutine's were, so turning
// the loops into Runners moved none). A change that moves them
// re-measures here and says why.
//
// The counts are a function of the seed alone, at any GOMAXPROCS: from
// deploy's Enter to execute's Exit one goroutine runs at a time, and the
// driver runs its stopped world out before it exits, so the clock is
// quiesced — every count final — when execute returns.
func TestDeliveriesSpawnNoGoroutines(t *testing.T) {
	sc, ok := Get("delay-storm-hb")
	if !ok {
		t.Fatal("delay-storm-hb not registered")
	}
	const maxSpawns = 8 // the timers, the request, the takeovers
	const maxWakes = 36 // blocked goroutines only: no sender, no poll, no receive loop
	wantEvents := []uint64{968, 938, 968, 968}
	for i, want := range wantEvents {
		seed := int64(i + 1)
		scratch := &runScratch{}
		o := execute(sc, seed, RunOptions{}, scratch)
		clk := firstNetwork(scratch).Clock()
		if !clk.Quiesced() {
			t.Fatalf("seed %d: the clock is still running when execute returns: %v", seed, clk.Stop())
		}
		spawns, wakes, events := clk.Spawns(), clk.Wakes(), clk.Events()
		t.Logf("seed %d: %d messages, %d goroutines spawned, %d woken, %d clock events", seed, o.Messages, spawns, wakes, events)
		if o.Messages < 500 {
			t.Errorf("seed %d: %d messages, want a storm of ≥ 500: the scenario no longer loads the message plane", seed, o.Messages)
		}
		if spawns > maxSpawns {
			t.Errorf("seed %d: %d goroutines spawned for %d messages, want ≤ %d: something spawns per message again", seed, spawns, o.Messages, maxSpawns)
		}
		if wakes > maxWakes {
			t.Errorf("seed %d: %d goroutine wake-ups, want ≤ %d: a periodic sender or poll waits in a goroutine again", seed, wakes, maxWakes)
		}
		if events != want {
			t.Errorf("seed %d: %d clock events, want %d", seed, events, want)
		}
	}
}

// TestCTHandOffsOnThePump gates what CT consensus costs the host, in the
// same counts as TestDeliveriesSpawnNoGoroutines, on the two single-group
// scenarios that run it under real ◇P detectors: partition-hb (a cut and a
// heal, ≈940 messages a seed) and power-cycle (every replica down at once,
// then recovered from its write-ahead log). A node's receive side is an
// endpoint handler and each instance's round loop a step machine on the
// pump, so neither a CT message nor a phase wait may start or wake a
// goroutine. What is still spawned and woken is the protocol around it:
// the request, the plan's timers, and the goroutines that block in
// Propose or in a WAL sync. Measured on seeds 1–4: partition-hb 14–16
// spawns, 56–61 wakes; power-cycle 9–10 spawns, 80–84 wakes (10–11 while
// a watcher's durable reply took a goroutine of its own). While the
// servers' receive loops were goroutines they were 17–19 and 71–78, and
// 16–17 and 90–94; while each node also ran a receive goroutine and each
// instance a round goroutine, 31–33 spawns and 158–171 wakes, and 32–35
// spawns and 204–219 wakes. Events are pinned exactly (partition-hb
// 1467/1405/1428/1447, power-cycle 481/489/458/487; 1481/1442/1467/1486
// and 487/495/464/492 while each owed request ran a watcher timer of its
// own, whose ticks were events; 1487/1448/1473/1492
// and 499/507/476/504 with the CT goroutines: one spawn event per node
// Start, and the first arm of a round machine sits where its spawn was;
// the receive loops' Runners moved none); a change that moves them
// re-measures here and says why.
func TestCTHandOffsOnThePump(t *testing.T) {
	for _, c := range []struct {
		name                string
		maxSpawns, maxWakes uint64
		events              []uint64
	}{
		{"partition-hb", 17, 66, []uint64{1467, 1405, 1428, 1447}},
		{"power-cycle", 12, 90, []uint64{481, 489, 458, 487}},
	} {
		sc, ok := Get(c.name)
		if !ok {
			t.Fatalf("%s not registered", c.name)
		}
		for i, want := range c.events {
			seed := int64(i + 1)
			scratch := &runScratch{}
			o := execute(sc, seed, RunOptions{}, scratch)
			clk := firstNetwork(scratch).Clock()
			if !clk.Quiesced() {
				t.Fatalf("%s seed %d: the clock is still running when execute returns: %v", c.name, seed, clk.Stop())
			}
			spawns, wakes, events := clk.Spawns(), clk.Wakes(), clk.Events()
			t.Logf("%s seed %d: %d messages, %d goroutines spawned, %d woken, %d clock events", c.name, seed, o.Messages, spawns, wakes, events)
			if spawns > c.maxSpawns {
				t.Errorf("%s seed %d: %d goroutines spawned, want ≤ %d: a CT node, an instance or a receive loop has a goroutine again", c.name, seed, spawns, c.maxSpawns)
			}
			if wakes > c.maxWakes {
				t.Errorf("%s seed %d: %d goroutine wake-ups, want ≤ %d: a CT message, a phase wait or a submit wakes a goroutine again", c.name, seed, wakes, c.maxWakes)
			}
			if events != want {
				t.Errorf("%s seed %d: %d clock events, want %d", c.name, seed, events, want)
			}
		}
	}
}
