package scenario

import (
	"runtime"
	"testing"
)

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
// counts the clock keeps (vclock.Virtual's Spawns and Events), so it holds
// on any runner: a delay-storm-hb seed is ≈600 messages, most of them
// heartbeats, and neither a delivery nor a heartbeat's receipt may start a
// goroutine. What is spawned is the deployment's loops, the plan's and the
// watchdog's timers and the request — 15 on every seed, however many
// messages the seed sends (when a delivery was a goroutine and each
// detector had a receiver, ≈620). Events are pinned exactly: one per
// message plus the loops' timers and wake-ups (seed 1: 918; 1 490 when
// each heartbeat also woke a receiver). A change that moves them
// re-measures here and says why.
//
// GOMAXPROCS is pinned to 1 for the reason TestOutcomesGolden gives; the
// counts are read once the stopped run's clock has fully wound down.
func TestDeliveriesSpawnNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc, ok := Get("delay-storm-hb")
	if !ok {
		t.Fatal("delay-storm-hb not registered")
	}
	const maxSpawns = 20 // 4 processes × their loops, the timers, the request
	wantEvents := []uint64{918, 858, 908, 937}
	for i, want := range wantEvents {
		seed := int64(i + 1)
		scratch := &runScratch{}
		o := execute(sc, seed, RunOptions{}, scratch)
		clk := scratch.nets[0].Clock()
		for !clk.Quiesced() {
			runtime.Gosched()
		}
		spawns, events := clk.Spawns(), clk.Events()
		t.Logf("seed %d: %d messages, %d goroutines spawned, %d clock events", seed, o.Messages, spawns, events)
		if o.Messages < 500 {
			t.Errorf("seed %d: %d messages, want a storm of ≥ 500: the scenario no longer loads the message plane", seed, o.Messages)
		}
		if spawns > maxSpawns {
			t.Errorf("seed %d: %d goroutines spawned for %d messages, want ≤ %d: something spawns per message again", seed, spawns, o.Messages, maxSpawns)
		}
		if events != want {
			t.Errorf("seed %d: %d clock events, want %d", seed, events, want)
		}
	}
}
