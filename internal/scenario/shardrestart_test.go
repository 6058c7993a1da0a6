package scenario

import (
	"reflect"
	"testing"
)

// shardSweepExactlyOnce is sweepExactlyOnce for the 4-shard durable
// scenarios: the 12-request sharded workload means the exactly-once
// histogram concentrates on 12, and the duplicate-replay and WAL checks
// carry over unchanged (each group writes its own store).
func shardSweepExactlyOnce(t *testing.T, name string, n int) VerdictDistribution {
	t.Helper()
	sc, ok := Get(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	d := Sweep(sc, Seeds(1, n), 0)
	if d.XAbleRate() != 1.0 || d.RepliedRate() != 1.0 {
		t.Errorf("%s: x-able %.4f replied %.4f over %d seeds, want 1.0; failing: %v",
			name, d.XAbleRate(), d.RepliedRate(), d.Runs, d.Failing)
	}
	if d.Effects[12] != n {
		t.Errorf("%s: effects histogram %v, want all mass on 12", name, d.Effects)
	}
	if d.ReplayDuplicates != 0 {
		t.Errorf("%s: %d runs re-applied an already-in-force effect after restart, want 0",
			name, d.ReplayDuplicates)
	}
	if d.WALAppends == 0 {
		t.Errorf("%s: no WAL appends across a durable sharded sweep; per-group stable storage was never written", name)
	}
	return d
}

// TestShardRestartSweepsExactlyOnce holds the durable sharded scenarios
// to the composition claim under restarts: a group-confined crash, a
// whole-group power cycle, and random group-scoped schedules that may
// power-cycle whole groups must all stay exactly-once per shard and
// exactly-once-routed globally, with recovery reading per-group logs.
func TestShardRestartSweepsExactlyOnce(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 12
	}
	shardSweepExactlyOnce(t, "shard-restart-minority", n)
	shardSweepExactlyOnce(t, "shard-power-cycle", n)
	shardSweepExactlyOnce(t, "shard-restart-random", n)
}

// TestShardPowerCycleDegradesGracefully pins the blackout's confinement:
// with every replica of shard 2 down for a window, the other three
// groups' reports stay clean, routing stays exact, and the revived group
// answers from its own log (per-shard reports all OK, effects exactly
// once).
func TestShardPowerCycleDegradesGracefully(t *testing.T) {
	sc, _ := Get("shard-power-cycle")
	for seed := int64(1); seed <= 8; seed++ {
		o := Execute(sc, seed)
		if !o.Replied || !o.XAble {
			t.Fatalf("seed %d: x-able=%v replied=%v: %+v", seed, o.XAble, o.Replied, o.ShardReports)
		}
		if !o.RoutingExact {
			t.Errorf("seed %d: routing audit failed", seed)
		}
		for s, rep := range o.ShardReports {
			if !rep.OK() {
				t.Errorf("seed %d shard %d: report not OK: %+v", seed, s, rep)
			}
		}
		if o.EffectsInForce != 12 {
			t.Errorf("seed %d: %d effects in force, want 12", seed, o.EffectsInForce)
		}
		if o.WALAppends == 0 {
			t.Errorf("seed %d: no WAL appends; the power-cycled group had nothing to recover from", seed)
		}
	}
}

// TestShardRestartByteDeterministic extends the reset-and-rerun contract
// to durable sharded runs: a run on recycled per-group networks must be
// bit-equal to a fresh-world Execute of the same (scenario, seed). This
// is where a leaked WAL would show — shard.New builds each group's store
// fresh even when the group's network is recycled, so a reused world
// must replay from the same empty logs as a fresh one.
func TestShardRestartByteDeterministic(t *testing.T) {
	for _, name := range []string{"shard-restart-minority", "shard-power-cycle", "shard-restart-random"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		scratch := &runScratch{}
		for seed := int64(1); seed <= 4; seed++ {
			fresh := Execute(sc, seed)
			reused := execute(sc, seed, RunOptions{}, scratch)
			fresh.History, reused.History = nil, nil
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("%s seed %d: reused-group outcome differs from fresh run:\nfresh:  %+v\nreused: %+v",
					name, seed, fresh, reused)
			}
		}
	}
}
