package scenario

import (
	"strings"
	"testing"
	"time"

	"xability/internal/simnet"
	"xability/internal/vclock"
)

// TestRandomPlanSameSeedIdentical pins the generator's contract: equal
// (seed, options) pairs generate identical plans — op for op, instant for
// instant — which is what makes RandomFaults scenarios replayable values.
func TestRandomPlanSameSeedIdentical(t *testing.T) {
	for _, opt := range []RandomOptions{
		{},
		{Ops: 8, Horizon: 10 * time.Millisecond},
		{Ops: 6, Shards: 4},
	} {
		for seed := int64(1); seed <= 50; seed++ {
			a := NewPlan().Random(seed, opt)
			b := NewPlan().Random(seed, opt)
			if a.String() != b.String() {
				t.Fatalf("seed %d opt %+v: two generations differ:\n%s\n--- vs ---\n%s", seed, opt, a, b)
			}
			if len(a.Ops()) != len(b.Ops()) || a.ShardBound() != b.ShardBound() {
				t.Fatalf("seed %d opt %+v: op count or shard binding differ", seed, opt)
			}
		}
	}
}

// TestRandomPlanSeedsDiffer checks the other direction: the generator
// actually varies with the seed (a sweep covers many schedules, not one).
func TestRandomPlanSeedsDiffer(t *testing.T) {
	seen := make(map[string]bool)
	for seed := int64(1); seed <= 20; seed++ {
		seen[NewPlan().Random(seed, RandomOptions{}).String()] = true
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
	run := func(seed int64, opt RandomOptions) []*recordingTarget {
		clk := vclock.NewVirtual()
		shards := opt.Shards
		if shards < 1 {
			shards = 1
		}
		groups := make([]*recordingTarget, shards)
		targets := make([]Target, shards)
		for s := range groups {
			groups[s] = newRecordingTarget(clk)
			targets[s] = groups[s]
		}
		p := NewPlan().Random(seed, opt)
		clk.Enter()
		p.Apply(clk, targets...)
		clk.Sleep(p.Horizon() + time.Millisecond)
		clk.Exit()
		return groups
	}
	for seed := int64(1); seed <= 100; seed++ {
		for _, opt := range []RandomOptions{{Ops: 6}, {Ops: 8, Shards: 4}} {
			for s, g := range run(seed, opt) {
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
	p := NewPlan().Random(7, RandomOptions{Ops: 8, Shards: 4})
	if !p.ShardBound() {
		t.Fatal("sharded random plan is not shard-bound")
	}
	if !strings.Contains(p.String(), "shard ") {
		t.Fatalf("sharded random plan names no shards:\n%s", p)
	}
	if p2 := NewPlan().Random(7, RandomOptions{Ops: 8}); p2.ShardBound() {
		t.Fatal("unsharded random plan claims to be shard-bound")
	}
}

// TestRandomPlanPartitionIsTopologyBound guards the flag propagation on
// the unsharded branch: a drawn plan containing a partition names
// explicit process sides, so it must refuse replica-count overrides.
func TestRandomPlanPartitionIsTopologyBound(t *testing.T) {
	sawPartition := false
	for seed := int64(1); seed <= 40; seed++ {
		p := NewPlan().Random(seed, RandomOptions{Ops: 6})
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
