package scenario

import (
	"fmt"
	"strings"
	"time"

	"xability/internal/simnet"
)

// Shard-qualified plan operations: the group-scoped half of the fault
// plane (see Target). Where the unqualified ops strike
// every group at once, these address single groups or k-of-N subsets —
// crash one group's owner, split-brain two groups of four, storm a subset
// — which is the adversarial vocabulary sharded deployments add.

// CrashShardAt crashes replica r of group shard at the given virtual time.
// The other groups keep serving: the scenario's claim is that a fault
// confined to one group stays confined — the deployment's other shards
// never notice.
func (p *Plan) CrashShardAt(at time.Duration, shard, replica int) *Plan {
	p.shardBound = true
	return p.addIdentified(at, fmt.Sprintf("shard %d: crash replica %d", shard, replica), OpCrash, shard, replica, func(groups []Target) {
		groups[shard].CrashServer(replica)
	})
}

// RestartShardAt revives crashed replica r of group shard at the given
// virtual time, on targets whose groups support it (see Restarter): the
// replica's endpoints reopen and a fresh incarnation recovers its durable
// state from the group's write-ahead log. Like RestartAt it is a no-op on
// a never-crashed replica and on groups without stable storage — so a
// whole-shard power cycle is just CrashShardAt × replicas followed by
// staggered RestartShardAts.
func (p *Plan) RestartShardAt(at time.Duration, shard, replica int) *Plan {
	p.shardBound = true
	return p.addIdentified(at, fmt.Sprintf("shard %d: restart replica %d", shard, replica), OpRestart, shard, replica, func(groups []Target) {
		restart(groups[shard], replica)
	})
}

// PartitionShardsAt applies the same in-group partition to each listed
// shard at the given virtual time: sides name processes by their in-group
// IDs ("replica-0", "client", …), identical across groups because every
// group runs on its own network. The correlated form of the split-brain
// schedule: k of N groups lose their owner behind a cut at one instant.
func (p *Plan) PartitionShardsAt(at time.Duration, shards []int, sides ...[]simnet.ProcessID) *Plan {
	var parts []string
	for _, g := range sides {
		ids := make([]string, len(g))
		for i, id := range g {
			ids[i] = string(id)
		}
		parts = append(parts, "{"+strings.Join(ids, " ")+"}")
	}
	p.topologyBound = true
	p.shardBound = true
	name := fmt.Sprintf("shards %v: partition %s", shards, strings.Join(parts, " | "))
	return p.add(at, name, func(groups []Target) {
		for _, s := range shards {
			groups[s].Network().Partition(sides...)
		}
	})
}

// StormShardsAt multiplies every message delay by factor on the listed
// groups for a window of the given duration — the correlated delay storm
// hitting k of N groups. No shards listed means all groups (equivalent to
// DelayStormAt).
func (p *Plan) StormShardsAt(at, duration time.Duration, factor float64, shards ...int) *Plan {
	if len(shards) > 0 {
		p.shardBound = true
	}
	set := func(f float64) func([]Target) {
		return func(groups []Target) {
			each(groups, shards, func(g Target) { g.Network().SetDelayScale(f) })
		}
	}
	p.add(at, fmt.Sprintf("shards %v: delay storm ×%g", shards, factor), set(factor))
	return p.add(at+duration, fmt.Sprintf("shards %v: delay storm ends", shards), set(1))
}

// HealShardsAt repairs the link fault plane of the listed groups at the
// given virtual time; no shards listed heals every group.
func (p *Plan) HealShardsAt(at time.Duration, shards ...int) *Plan {
	if len(shards) > 0 {
		p.shardBound = true
	}
	return p.add(at, fmt.Sprintf("shards %v: heal", shards), func(groups []Target) {
		each(groups, shards, func(g Target) { g.Network().Heal() })
	})
}

// OnShard re-addresses every op of sub to one group: the whole existing
// fault vocabulary — suspicion pulses, partitions, storms, crashes —
// becomes group-scoped without new builders. Ops keep their firing times;
// sub itself is not mutated and may be reused for several shards.
func (p *Plan) OnShard(shard int, sub *Plan) *Plan {
	p.shardBound = true
	if sub != nil {
		p.topologyBound = p.topologyBound || sub.topologyBound
	}
	for _, op := range sub.Ops() {
		op := op
		requalified := op
		requalified.Name = fmt.Sprintf("shard %d: %s", shard, op.Name)
		requalified.Do = func(groups []Target) { op.Do(groups[shard : shard+1]) }
		// Re-addressing scopes the op's identity too: a crash that fanned
		// out to every group now names this one, so the shrinker pairs it
		// with restarts of the same scope only.
		if requalified.Kind != OpOther {
			requalified.Shard = shard
		}
		p.ops = append(p.ops, requalified)
	}
	return p
}

// ShardBound reports whether the plan names explicit shard indices. Such
// plans only make sense against the shard count they were written for;
// overriding the deployment's shard count under them silently changes the
// faults' meaning.
func (p *Plan) ShardBound() bool {
	if p == nil {
		return false
	}
	return p.shardBound
}
