package scenario

import (
	"reflect"
	"testing"

	"xability/internal/core"
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
// built a second clock, network or replica group instead of recycling its
// first: every later seed must reset the same *core.Cluster, and the same
// *core.Server at every index whose replica the seed's plan never
// restarts (a restart builds a fresh incarnation mid-run, which the next
// seed then resets in its place).
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
		var groups []*core.Cluster
		var servers [][]*core.Server
		for seed := int64(1); seed <= 5; seed++ {
			fresh := Execute(sc, seed)
			reused := execute(sc, seed, RunOptions{}, scratch)
			if seed == 1 {
				first = firstNetwork(scratch)
				clk = first.Clock()
			}
			if firstNetwork(scratch).Clock() != clk {
				t.Errorf("%s seed %d: scratch built a new clock instead of rewinding its first", name, seed)
			}
			now := recycledGroups(scratch)
			restarted := restartedBy(sc, seed)
			for g, grp := range now {
				if seed == 1 {
					break
				}
				if g >= len(groups) || grp != groups[g] {
					t.Errorf("%s seed %d: group %d is a new cluster, not the recycled one", name, seed, g)
					continue
				}
				for i, srv := range grp.Servers {
					if srv != servers[g][i] && !restarted[[2]int{g, i}] {
						t.Errorf("%s seed %d: group %d replica %d never restarted, yet its server is not the recycled one", name, seed, g, i)
					}
				}
			}
			groups, servers = now, servers[:0]
			for _, grp := range now {
				servers = append(servers, append([]*core.Server(nil), grp.Servers...))
			}
			fresh.History, reused.History = nil, nil
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("%s seed %d: reused-network outcome differs from fresh run:\nfresh:  %+v\nreused: %+v",
					name, seed, fresh, reused)
			}
		}
		if firstNetwork(scratch) != first {
			t.Errorf("%s: scratch abandoned its network (Reset failed); reuse never engaged", name)
		}
		if sc.Protocol == XAbility && len(groups) == 0 {
			t.Errorf("%s: scratch kept no replica group to recycle", name)
		}
	}
}

// firstNetwork returns the first network of the scratch's deployment, the
// one its first group or its baseline cluster runs on (nil before a run).
func firstNetwork(s *runScratch) *simnet.Network {
	switch {
	case s.shards != nil:
		return s.shards.Group(0).Net
	case s.group != nil:
		return s.group.Net
	case s.base != nil:
		return s.base.Net
	}
	return nil
}

// recycledGroups lists the replica groups a scratch keeps, in shard order
// (none for a baseline).
func recycledGroups(s *runScratch) []*core.Cluster {
	if s.shards != nil {
		groups := make([]*core.Cluster, s.shards.Shards())
		for g := range groups {
			groups[g] = s.shards.Group(g)
		}
		return groups
	}
	if s.group != nil {
		return []*core.Cluster{s.group}
	}
	return nil
}

// restartedBy returns the (group, replica) pairs the seed's plan restarts.
func restartedBy(sc Scenario, seed int64) map[[2]int]bool {
	sc = sc.withDefaults().Materialize(seed)
	out := make(map[[2]int]bool)
	for _, op := range sc.Plan.Ops() {
		if op.Kind != OpRestart {
			continue
		}
		for g := 0; g < max(sc.Shards, 1); g++ {
			if op.Shard == AllShards || op.Shard == g {
				out[[2]int{g, op.Replica}] = true
			}
		}
	}
	return out
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
