package scenario

import "fmt"

// Group-scoped plan operations: the sharded half of the fault plane (see
// Target). Where an unqualified op strikes every group at once, OnShard
// addresses one group — crash one group's owner, split-brain two groups of
// four, storm a subset — with the same vocabulary: a k-of-N fault is k
// OnShard calls at the same instants.

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
