// Package shard is the sharding plane: a keyspace partitioned across many
// independently replicated x-able groups, served behind one facade.
//
// The paper's composition result (§1, §4 — locality) is what makes the
// plane sound: each group is a replicated service proved x-able on its own
// terms, and a deployment that routes every request to exactly one owning
// group is a composition of x-able services, so it is x-able end to end.
// The subsystem makes that argument mechanical:
//
//   - Ring is a consistent-hash keyspace partitioner: a deterministic map
//     from routing keys to shard indices, stable under reshards (adding a
//     shard moves keys only onto the new shard).
//   - Router maps each request to its owning group via a registered key
//     extractor and submits it there; within the group the client stub
//     retries and fails over across replicas on crash or suspicion (R1/R2
//     license exactly that), so the router never re-routes a request to a
//     non-owner — which is the global exactly-once-routing invariant the
//     merged checker verifies.
//   - Cluster is the cluster-of-clusters runtime: N replica groups, each a
//     core.Cluster with its own simulated network, all sharing one virtual
//     clock so the deployment lives on a single discrete-event timeline
//     (aggregate throughput is measured in one simulated time base, and
//     fault plans address groups at common virtual instants).
//
// Groups deliberately do not share a network: the protocol's announce
// broadcast is network-wide, so co-registering two groups would leak
// protocol traffic across shard boundaries, and a shared delay generator
// would make concurrent per-shard streams racy. One network per group
// keeps every group exactly as deterministic as a standalone cluster and
// gives fault plans a group-scoped link plane for free.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"xability/internal/memo"
)

// DefaultVNodes is the default number of virtual nodes per shard on the
// ring. More virtual nodes smooth the key distribution at the cost of a
// larger (still tiny) lookup table.
const DefaultVNodes = 64

// Ring is a consistent-hash partitioner over a fixed shard count. It is an
// immutable value: NewRing hands every caller asking for one shape the same
// ring, and it may be shared freely.
//
// Each shard owns VNodes points on a 64-bit hash circle; a key belongs to
// the shard owning the first point at or clockwise of the key's hash.
// Ownership is deterministic (pure FNV-1a, no per-process state) and
// minimally disruptive: the points of existing shards do not move when a
// ring is rebuilt with one more shard, so only keys landing on the new
// shard's points change owner — the classic consistent-hashing property,
// pinned by TestRingReshardMovesKeysOnlyToNewShard.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing returns the ring over the given shard count; vnodes of 0 selects
// DefaultVNodes. Shard counts below 1 panic: an empty ring owns nothing. A
// Ring is immutable, so each (shards, vnodes) ring is built once per
// program and every later call — every seed of a sharded sweep — shares
// it.
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		panic(fmt.Sprintf("shard: ring needs at least 1 shard, got %d", shards))
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return rings.Get([2]int{shards, vnodes})
}

var rings = memo.New(func(k [2]int) *Ring { return buildRing(k[0], k[1]) })

func buildRing(shards, vnodes int) *Ring {
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("shard-%d/vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by shard index so the ring is
		// a deterministic value on every host.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the ring's shard count.
func (r *Ring) Shards() int { return r.shards }

// Owner maps a routing key to its owning shard index.
func (r *Ring) Owner(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return r.points[i].shard
}

// hash64 positions a string on the circle: FNV-1a folded through a 64-bit
// finalizer. Raw FNV of short, near-identical keys ("acct-1", "acct-2", …)
// differs mostly in the low bits, so whole keyspaces cluster on one arc
// and a few vnodes own everything; the avalanche mix (murmur3's fmix64)
// spreads exactly such families uniformly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmix64(h.Sum64())
}

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
