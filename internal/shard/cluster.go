package shard

import (
	"xability/internal/core"
	"xability/internal/event"
	"xability/internal/recycle"
	"xability/internal/sm"
	"xability/internal/vclock"
)

// Config describes a sharded deployment: N replica groups, each an
// independent core.Cluster built from one template, behind one keyspace
// router.
type Config struct {
	// Shards is the number of replica groups (default 1).
	Shards int
	// Group is the template every group is built from: replication degree,
	// substrates, vocabulary, batching, costs and stable storage mean what
	// they mean in core (a durable deployment gives every group its own
	// wal.Store, so a whole shard can power-cycle and recover from its
	// logs). Group.Seed drives the whole deployment — each group derives
	// its own seed from it (GroupSeed), so equal Configs reproduce equal
	// runs — and Group.Net.Clock, when set, is the deployment's shared
	// clock (nil: the deployment's own, new at New and rewound by each
	// Reset). Every group gets its own network (its own delay stream, link
	// fault plane and counters) on that clock, with its index as the
	// network's Group, so one Group.Net.Record log tells the groups'
	// entries apart.
	Group core.ClusterConfig
	// Setup, when non-nil, returns the machine-setup function for one
	// group in place of Group.Setup, so each shard can own its slice of the
	// application state (its own bank).
	Setup func(shard int) func(m *sm.Machine)
}

// Cluster is the cluster-of-clusters runtime: the groups, the ring, and
// the router, on one shared virtual clock.
type Cluster struct {
	clk    *vclock.Virtual
	ring   *Ring
	groups []*core.Cluster

	// Router is the deployment's client: it owns request routing and the
	// per-shard submission streams.
	Router *Router
}

// GroupSeed derives group s's seed from the deployment seed. Groups must
// see distinct delay and failure-injection streams (a correlated-fault
// scenario should be correlated by the plan, not by accidental seed
// reuse), and the derivation must be pure so runs replay.
func GroupSeed(seed int64, s int64) int64 {
	return seed + (s+1)*0x9E3779B9 // golden-ratio stride keeps groups apart
}

// New assembles and starts a sharded deployment. A group differs from the
// template in its seeds, the shared clock, its network's Group and its
// setup; nothing else. Like core.NewCluster it only schedules, so no group
// runs ahead of the ones built after it.
func New(cfg Config) *Cluster {
	c := new(Cluster)
	c.Reset(cfg)
	return c
}

// Reset rebuilds c in place as the deployment New(cfg) builds, group s on
// the one at index s, on its network (core.ResetGroups), and reports true.
// This is the one place a group's seed and its network's Group are
// derived. When cfg names no clock, c keeps its own, rewound to time zero.
// It refuses, reporting false and changing nothing, unless the groups'
// clock is Quiesced. The router is built afresh: it is two objects and the
// routing log.
func (c *Cluster) Reset(cfg Config) bool {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	clk := cfg.Group.Net.Clock
	if clk == nil {
		if c.clk == nil {
			clk = vclock.NewVirtual()
		} else if clk = c.clk; !clk.Reset() {
			return false
		}
	}
	groups := recycle.Len(c.groups, cfg.Shards)
	reset := core.ResetGroups(groups, func(s int) core.ClusterConfig {
		g := cfg.Group
		g.Seed = GroupSeed(cfg.Group.Seed, int64(s))
		g.Net.Seed = g.Seed
		g.Net.Clock = clk
		g.Net.Group = s
		if cfg.Setup != nil {
			g.Setup = cfg.Setup(s)
		}
		return g
	})
	if !reset {
		return false
	}
	*c = Cluster{clk: clk, ring: NewRing(cfg.Shards, DefaultVNodes), groups: groups}
	c.Router = newRouter(c.ring, c.groups, clk)
	return true
}

// Clock returns the deployment's shared clock.
func (c *Cluster) Clock() *vclock.Virtual { return c.clk }

// Shards returns the number of replica groups.
func (c *Cluster) Shards() int { return len(c.groups) }

// Ring returns the deployment's keyspace partitioner.
func (c *Cluster) Ring() *Ring { return c.ring }

// Group returns replica group s — the per-shard fault surface (its own
// network, detectors, and environment).
func (c *Cluster) Group(s int) *core.Cluster { return c.groups[s] }

// History returns group s's observed event history, after quiescing its
// network.
func (c *Cluster) History(s int) event.History {
	g := c.groups[s]
	g.Net.Quiesce()
	return g.Observer.History()
}

// Histories snapshots every group's history in shard order, quiescing
// each group once — the shared input for per-shard verification and the
// merged trace (fetch once, use for both).
func (c *Cluster) Histories() []event.History {
	out := make([]event.History, len(c.groups))
	for s := range c.groups {
		out[s] = c.History(s)
	}
	return out
}

// Stop shuts every group down.
func (c *Cluster) Stop() {
	for _, g := range c.groups {
		g.Stop()
	}
}
