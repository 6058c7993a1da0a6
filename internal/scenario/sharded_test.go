package scenario

import (
	"reflect"
	"testing"
	"time"

	"xability/internal/schedule"
)

// TestShardedSweepDeterministic pins the sharded runtime's replayability:
// the same sharded scenario over the same seed set yields a deeply equal
// VerdictDistribution at any worker count and on repetition. This is the
// strong claim behind the whole design — concurrent per-shard streams on
// one virtual clock, each group on its own network with its own delay
// stream, must leave no trace of host scheduling in the verdicts. CI runs
// it with -race -count=5.
func TestShardedSweepDeterministic(t *testing.T) {
	sc, ok := Get("shard-crash-failover")
	if !ok {
		t.Fatal("shard-crash-failover not registered")
	}
	seeds := Seeds(2000, 48)
	serial := Sweep(sc, seeds, 1)
	parallel := Sweep(sc, seeds, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("worker count observable in the sharded distribution:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	again := Sweep(sc, seeds, 8)
	if !reflect.DeepEqual(parallel, again) {
		t.Errorf("replay of the same sharded sweep differs:\nfirst:  %+v\nsecond: %+v", parallel, again)
	}
}

// TestShardedOutcomeDeterministic re-executes single sharded runs —
// including SimTime, which is where a scheduling leak would show first
// (the virtual span of concurrent streams) — and requires bit-equal
// outcomes. The second execution asks for a recording: a sharded run sits
// outside the record/replay plane, so the request changes nothing and the
// outcome carries no Schedule (not the caller's empty log).
func TestShardedOutcomeDeterministic(t *testing.T) {
	for _, name := range []string{"shard-nice", "shard-crash-failover", "shard-storm", "shard-random"} {
		sc, _ := Get(name)
		for seed := int64(1); seed <= 4; seed++ {
			a := Execute(sc, seed)
			b := Run(sc, seed, RunOptions{Record: schedule.NewLog()})
			if b.Schedule != nil {
				t.Errorf("%s seed %d: sharded run returned a Schedule of %d entries, want nil", name, seed, b.Schedule.Len())
			}
			a.History, b.History = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: two executions differ:\n%+v\nvs\n%+v", name, seed, a, b)
			}
		}
	}
}

// TestShardedCTByteDeterministic byte-pins the CT-substrate sharded run —
// Messages and SimTime included. This is the 12-request sharded
// configuration that used to expose the wake-up-bubble RNG race (a CT
// node's receive loop and round loop sending concurrently inside one
// virtual-clock bubble, ~1/300 race runs): with per-sender delay streams a
// sender's draws no longer depend on how the host interleaved other
// processes' sends, so the whole outcome must now reproduce exactly. CI
// runs this under -race -count=5.
func TestShardedCTByteDeterministic(t *testing.T) {
	sc, _ := Get("shard-split-brain")
	for seed := int64(1); seed <= 4; seed++ {
		a := Execute(sc, seed)
		b := Execute(sc, seed)
		a.History, b.History = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: executions differ byte-for-byte:\n%+v\nvs\n%+v", seed, a, b)
		}
	}
}

// TestShardedSweepRates holds every sharded scenario to the composition
// claim at population scale: x-able rate exactly 1.0, every request
// answered, every effect exactly once.
func TestShardedSweepRates(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 12
	}
	for _, name := range []string{"shard-nice", "shard-crash-failover", "shard-split-brain", "shard-storm", "shard-random"} {
		sc, _ := Get(name)
		d := Sweep(sc, Seeds(700, n), 0)
		if d.XAbleRate() != 1.0 || d.RepliedRate() != 1.0 {
			t.Errorf("%s: x-able %.4f replied %.4f over %d seeds, want 1.0; failing: %v",
				name, d.XAbleRate(), d.RepliedRate(), d.Runs, d.Failing)
		}
		// Every run submits the 12-request workload; exactly-once means 12
		// effects in force per run.
		if d.Effects[12] != n {
			t.Errorf("%s: effects histogram %v, want all mass on 12", name, d.Effects)
		}
	}
}

// TestShardCrashFailoverRouterExactlyOnce is the router-failover check at
// the scenario level: every group's round-1 owner crashes mid-call, each
// group's cleaner takes over, and the merged checker must certify both
// per-shard exactly-once and exactly-once routing on every seed.
func TestShardCrashFailoverRouterExactlyOnce(t *testing.T) {
	sc, _ := Get("shard-crash-failover")
	for seed := int64(1); seed <= 8; seed++ {
		o := Execute(sc, seed)
		if !o.Replied || !o.XAble {
			t.Fatalf("seed %d: x-able=%v replied=%v: %+v", seed, o.XAble, o.Replied, o.ShardReports)
		}
		if !o.RoutingExact {
			t.Errorf("seed %d: routing audit failed", seed)
		}
		if len(o.ShardReports) != 4 {
			t.Fatalf("seed %d: %d shard reports, want 4", seed, len(o.ShardReports))
		}
		for s, rep := range o.ShardReports {
			if !rep.OK() {
				t.Errorf("seed %d shard %d: report not OK: %+v", seed, s, rep)
			}
		}
		if o.EffectsInForce != 12 {
			t.Errorf("seed %d: %d effects in force, want 12 (one per request)", seed, o.EffectsInForce)
		}
		// The crash must actually bite: with every owner crashed at 2ms,
		// failovers show up as extra submit attempts or extra executions.
		if o.Attempts <= o.Requests && o.Executions <= o.Requests {
			t.Errorf("seed %d: no failover evidence (attempts %d, executions %d over %d requests)",
				seed, o.Attempts, o.Executions, o.Requests)
		}
	}
}

// TestShardFaultIsolation pins the confinement claim: a crash addressed
// to one group (CrashShardAt) leaves the other groups' replica sets
// untouched.
func TestShardFaultIsolation(t *testing.T) {
	sc, _ := Get("shard-nice")
	sc.Plan = NewPlan().CrashShardAt(500*time.Microsecond, 1, 0)
	o := Execute(sc, 3)
	if !o.XAble || !o.Replied {
		t.Fatalf("confined crash broke the deployment: %+v", o)
	}
}
