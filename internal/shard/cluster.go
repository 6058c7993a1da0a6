package shard

import (
	"xability/internal/core"
	"xability/internal/event"
	"xability/internal/simnet"
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
	// clock (nil selects a fresh one). Every group gets its own network
	// (its own delay stream, link fault plane and counters) on that clock.
	Group core.ClusterConfig
	// Setup, when non-nil, returns the machine-setup function for one
	// group in place of Group.Setup, so each shard can own its slice of the
	// application state (its own bank).
	Setup func(shard int) func(m *sm.Machine)
	// Networks, when non-nil (one per shard), deploys each group onto an
	// existing recycled network instead of building fresh ones — the
	// sharded analogue of core.ClusterConfig.Network. Each must already
	// have been Reset with the group's seed and the deployment's new
	// shared clock (which the caller then also passes as Group.Net.Clock).
	Networks []*simnet.Network
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
// template in its seeds, the shared clock, its recycled network and its
// setup; nothing else.
func New(cfg Config) *Cluster {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	clk := cfg.Group.Net.Clock
	if clk == nil {
		clk = vclock.NewVirtual()
	}
	c := &Cluster{clk: clk, ring: NewRing(cfg.Shards, DefaultVNodes)}
	for s := 0; s < cfg.Shards; s++ {
		g := cfg.Group
		g.Seed = GroupSeed(cfg.Group.Seed, int64(s))
		g.Net.Seed = g.Seed
		g.Net.Clock = clk
		g.Network = nil // never the template's: groups do not share a network
		if cfg.Networks != nil {
			g.Network = cfg.Networks[s]
		}
		if cfg.Setup != nil {
			g.Setup = cfg.Setup(s)
		}
		c.groups = append(c.groups, core.NewCluster(g))
	}
	c.Router = newRouter(c.ring, c.groups, clk)
	return c
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
