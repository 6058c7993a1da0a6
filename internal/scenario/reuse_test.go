package scenario

import (
	"reflect"
	"testing"

	"xability/internal/simnet"
	"xability/internal/vclock"
)

// TestReusedNetworkBitEqualOutcomes pins the reset-and-rerun contract: a
// run on a recycled clock and network (the sweep workers' per-worker
// scratch) must produce an outcome bit-equal — SimTime included — to a
// fresh-world Execute of the same (scenario, seed). The scenario list
// crosses the deployment shapes reuse must survive: plain scripted runs,
// the CT consensus substrate (extra /cons endpoints), heartbeat detectors
// (extra /fd endpoints), link faults that mutate the partition plane,
// seed-drawn random fault schedules, the durable plane's crash-restart and
// total-loss runs, and the batched closed and open loops.
func TestReusedNetworkBitEqualOutcomes(t *testing.T) {
	assertReuseBitEqual(t, []string{
		"nice", "crash-failover", "delay-storm", "partition",
		"delay-storm-hb", "random-faults", "pb-crash-failover",
		"partition-hb", "power-cycle", "restart-random-total",
		"batch-crash-failover", "open-loop-batch",
	})
}

// TestReusedShardedNetworksBitEqualOutcomes extends the reset-and-rerun
// contract to the sharded runtime: a sweep worker recycles one network
// per replica group, all reset onto the worker's one rewound clock, and a
// run on the recycled group set must be bit-equal to a fresh-world
// Execute. The list crosses the sharded shapes reuse must survive: the
// failure-free router path, correlated crashes, the storm's link-fault
// mutation, the batched open-loop composition, and durable groups through
// a power cycle.
func TestReusedShardedNetworksBitEqualOutcomes(t *testing.T) {
	assertReuseBitEqual(t, []string{
		"shard-nice", "shard-crash-failover", "shard-storm", "shard-open-loop",
		"shard-power-cycle",
	})
}

// assertReuseBitEqual runs seeds 1–5 of each scenario fresh and on one
// scratch, and fails on any outcome that differs, or on a scratch that
// built a second clock or network instead of recycling its first.
func assertReuseBitEqual(t *testing.T, names []string) {
	t.Helper()
	for _, name := range names {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		scratch := &runScratch{}
		// What seed 1 built and every later seed must recycle.
		var clk *vclock.Virtual
		var first *simnet.Network
		for seed := int64(1); seed <= 5; seed++ {
			fresh := Execute(sc, seed)
			reused := execute(sc, seed, RunOptions{}, scratch)
			if seed == 1 {
				clk, first = scratch.clk, scratch.nets[0]
			}
			if scratch.clk != clk {
				t.Errorf("%s seed %d: scratch built a new clock instead of rewinding its first", name, seed)
			}
			fresh.History, reused.History = nil, nil
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("%s seed %d: reused-network outcome differs from fresh run:\nfresh:  %+v\nreused: %+v",
					name, seed, fresh, reused)
			}
		}
		if scratch.nets[0] != first {
			t.Errorf("%s: scratch abandoned its network (Reset failed); reuse never engaged", name)
		}
	}
}

// TestSweepMatchesSingleRuns pins the same contract at the Sweep level:
// the distribution a parallel sweep on recycled clocks and networks folds
// must be exactly the one per-seed fresh Executes fold — every verdict
// column: x-able and replied counts, effects and executions histograms,
// attempts, messages, duplicate-replay runs, WAL totals and failing seeds.
func TestSweepMatchesSingleRuns(t *testing.T) {
	for _, name := range []string{"crash-failover", "power-cycle"} {
		sc, _ := Get(name)
		seeds := Seeds(300, 24)
		got := Sweep(sc, seeds, 4)
		fresh := make([]Outcome, len(seeds))
		for i, seed := range seeds {
			fresh[i] = Execute(sc, seed)
		}
		if want := fold(sc.Name, fresh); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sweep folded\n%+v\nfresh runs fold\n%+v", name, got, want)
		}
	}
}
