package scenario

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"xability/internal/simnet"
	"xability/internal/vclock"
)

// TestRandomPlanSameSeedIdentical pins the generator's contract: equal
// (seed, shape, options) inputs generate identical plans — op for op,
// instant for instant — which is what makes RandomFaults scenarios
// replayable values.
func TestRandomPlanSameSeedIdentical(t *testing.T) {
	for _, c := range []struct {
		shards int
		opt    RandomOptions
	}{
		{1, RandomOptions{}},
		{4, RandomOptions{Ops: 6}},
	} {
		for seed := int64(1); seed <= 50; seed++ {
			a := NewPlan().Random(seed, 3, c.shards, c.opt)
			b := NewPlan().Random(seed, 3, c.shards, c.opt)
			if a.String() != b.String() {
				t.Fatalf("seed %d shards %d opt %+v: two generations differ:\n%s\n--- vs ---\n%s", seed, c.shards, c.opt, a, b)
			}
			if len(a.Ops()) != len(b.Ops()) || a.ShardBound() != b.ShardBound() {
				t.Fatalf("seed %d shards %d opt %+v: op count or shard binding differ", seed, c.shards, c.opt)
			}
		}
	}
}

// TestRandomPlanDigest pins the generator's output: the rendered plans of
// seeds 1–512 for six shapes of a three-replica deployment, folded into one
// FNV-1a digest each. A change that means to keep every drawn schedule —
// a refactor of the generator or of its options — leaves all six equal; a
// change that moves one re-pins outcomes.golden with it.
func TestRandomPlanDigest(t *testing.T) {
	for _, c := range []struct {
		name   string
		shards int
		opt    RandomOptions
		want   uint64
	}{
		{"crash-stop", 1, RandomOptions{Ops: 4}, 0x139b2cc701a8a17d},
		{"restart-minority", 1, RandomOptions{Ops: 4, Outage: RestartMinority}, 0x5173ec7869d57cc3},
		{"restart-majority", 1, RandomOptions{Ops: 5, Outage: RestartMajority}, 0x57eeca35db82d388},
		{"restart-all", 1, RandomOptions{Ops: 6, Outage: RestartAll}, 0xdea727b590853756},
		{"4 shards crash-stop", 4, RandomOptions{Ops: 8}, 0x5f6d50d8d9d764cf},
		{"4 shards restart-all", 4, RandomOptions{Ops: 6, Outage: RestartAll}, 0x314da9b6da4f9ffb},
	} {
		h := fnv.New64a()
		for seed := int64(1); seed <= 512; seed++ {
			fmt.Fprint(h, NewPlan().Random(seed, 3, c.shards, c.opt).String(), "\n")
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: plan digest %016x, want %016x", c.name, got, c.want)
		}
	}
}

// TestRandomPlanSeedsDiffer checks the other direction: the generator
// actually varies with the seed (a sweep covers many schedules, not one).
func TestRandomPlanSeedsDiffer(t *testing.T) {
	seen := make(map[string]bool)
	for seed := int64(1); seed <= 20; seed++ {
		seen[NewPlan().Random(seed, 3, 1, RandomOptions{}).String()] = true
	}
	if len(seen) < 15 {
		t.Errorf("20 seeds produced only %d distinct plans", len(seen))
	}
}

// recordingTarget implements Target and counts what a plan does to it; a
// sharded deployment is a list of them, one recorder per group.
type recordingTarget struct {
	net      *simnet.Network
	crashes  map[int]bool
	suspects map[simnet.ProcessID]bool
	clientS  map[simnet.ProcessID]bool
}

func newRecordingTarget(clk *vclock.Virtual) *recordingTarget {
	return &recordingTarget{
		net:      simnet.New(simnet.Config{Clock: clk}),
		crashes:  map[int]bool{},
		suspects: map[simnet.ProcessID]bool{},
		clientS:  map[simnet.ProcessID]bool{},
	}
}

func (r *recordingTarget) Network() *simnet.Network { return r.net }
func (r *recordingTarget) CrashServer(i int)        { r.crashes[i] = true }
func (r *recordingTarget) SuspectEverywhere(p simnet.ProcessID, v bool) {
	r.suspects[p] = v
}
func (r *recordingTarget) ClientSuspect(p simnet.ProcessID, v bool) {
	r.clientS[p] = v
}

// TestRandomPlanRespectsLiveness applies many generated schedules to a
// recording target, runs the virtual clock past the horizon, and asserts
// the generator's liveness guards semantically: at most a minority of
// each group crashed, and every suspicion — replica- and client-side —
// was recovered by the end. (Healed partitions and calmed storms are
// exercised against the real network fault plane in the sweep tests.)
func TestRandomPlanRespectsLiveness(t *testing.T) {
	const replicas = 3
	run := func(seed int64, shards int, opt RandomOptions) []*recordingTarget {
		clk := vclock.NewVirtual()
		groups := make([]*recordingTarget, shards)
		targets := make([]Target, shards)
		for s := range groups {
			groups[s] = newRecordingTarget(clk)
			targets[s] = groups[s]
		}
		p := NewPlan().Random(seed, replicas, shards, opt)
		p.Apply(clk, targets...)
		clk.Sleep(p.Horizon() + time.Millisecond)
		return groups
	}
	for seed := int64(1); seed <= 100; seed++ {
		for _, c := range []struct {
			shards int
			opt    RandomOptions
		}{{1, RandomOptions{Ops: 6}}, {4, RandomOptions{Ops: 8}}} {
			for s, g := range run(seed, c.shards, c.opt) {
				if len(g.crashes) > (replicas-1)/2 {
					t.Fatalf("seed %d shard %d: %d crashes exceed the minority bound", seed, s, len(g.crashes))
				}
				for p, v := range g.suspects {
					if v {
						t.Errorf("seed %d shard %d: suspicion of %s never recovered", seed, s, p)
					}
				}
				for p, v := range g.clientS {
					if v {
						t.Errorf("seed %d shard %d: client suspicion of %s never recovered", seed, s, p)
					}
				}
			}
		}
	}
}

// TestRandomPlanShardQualified checks that sharded draws actually address
// groups (the plan is shard-bound and names shards in its ops).
func TestRandomPlanShardQualified(t *testing.T) {
	p := NewPlan().Random(7, 3, 4, RandomOptions{Ops: 8})
	if !p.ShardBound() {
		t.Fatal("sharded random plan is not shard-bound")
	}
	if !strings.Contains(p.String(), "shard ") {
		t.Fatalf("sharded random plan names no shards:\n%s", p)
	}
	if p2 := NewPlan().Random(7, 3, 1, RandomOptions{Ops: 8}); p2.ShardBound() {
		t.Fatal("unsharded random plan claims to be shard-bound")
	}
}

// TestRandomPlanPartitionIsTopologyBound guards the flag propagation on
// the unsharded branch: a drawn plan containing a partition names
// explicit process sides, so it must refuse replica-count overrides.
func TestRandomPlanPartitionIsTopologyBound(t *testing.T) {
	sawPartition := false
	for seed := int64(1); seed <= 40; seed++ {
		p := NewPlan().Random(seed, 3, 1, RandomOptions{Ops: 6})
		if strings.Contains(p.String(), "partition") {
			sawPartition = true
			if !p.TopologyBound() {
				t.Fatalf("seed %d: drawn plan partitions named processes but is not topology-bound:\n%s", seed, p)
			}
		}
	}
	if !sawPartition {
		t.Skip("no seed in range drew a partition; widen the range")
	}
}
