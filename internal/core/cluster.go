package core

import (
	"fmt"
	"time"

	"xability/internal/action"
	"xability/internal/consensus"
	"xability/internal/env"
	"xability/internal/fd"
	"xability/internal/memo"
	"xability/internal/obs"
	"xability/internal/recycle"
	"xability/internal/simnet"
	"xability/internal/sm"
	"xability/internal/trace"
	"xability/internal/vclock"
	"xability/internal/wal"
)

// ConsensusMode selects the consensus substrate.
type ConsensusMode int

const (
	// ConsensusLocal uses the linearizable shared objects the paper assumes
	// (§5.2): one LocalProvider shared by all replicas.
	ConsensusLocal ConsensusMode = iota
	// ConsensusCT uses the message-passing rotating-coordinator protocol
	// over the simulated network (internal/consensus, ct.go).
	ConsensusCT
)

// DetectorMode selects the failure-detector substrate.
type DetectorMode int

const (
	// DetectorScripted wires a Scripted detector per process; tests inject
	// suspicions deterministically via Cluster.Suspect.
	DetectorScripted DetectorMode = iota
	// DetectorHeartbeat wires heartbeat-driven ◇P detectors.
	DetectorHeartbeat
)

// ClusterConfig describes a full replicated service for tests, examples,
// and benchmarks.
type ClusterConfig struct {
	Replicas  int
	Seed      int64
	Net       simnet.Config
	Consensus ConsensusMode
	Detector  DetectorMode
	// Registry is the service's action vocabulary.
	Registry *action.Registry
	// Setup registers action bodies on each replica's machine.
	Setup func(m *sm.Machine)
	// HeartbeatInterval tunes DetectorHeartbeat.
	HeartbeatInterval time.Duration
	// Batch enables the batched/pipelined slot plane on every replica
	// (zero value: per-request protocol).
	Batch BatchConfig
	// Costs charges virtual CPU time per protocol primitive (zero value:
	// free, as before — see CostModel).
	Costs CostModel
	// Durable gives every replica stable storage (internal/wal): servers
	// and CT acceptors write-ahead their state and RestartServer can revive
	// a crashed replica by replay. Off (the default), a crash is final.
	Durable bool
	// WALSync is the per-append sync tariff charged on the clock when
	// Durable is set (zero: appends are free and schedule-invisible).
	WALSync time.Duration
	// WALSnapshotSync is the per-record tariff for compaction snapshot
	// writes (zero: snapshots are free).
	WALSnapshotSync time.Duration
	// WALCompact triggers log compaction once a log has grown this many
	// synced records past its last snapshot (zero: logs grow unboundedly,
	// the pre-compaction behavior).
	WALCompact int
}

// Cluster is an assembled service: n server replicas, one client stub, a
// shared environment, and the run's event observer.
type Cluster struct {
	Net      *simnet.Network
	Observer *trace.Observer
	Env      *env.Env
	Servers  []*Server
	Client   *Client

	scripted  []*fd.Scripted // replica i's scripted detector (scripted mode only)
	clientDet *fd.Scripted   // scripted mode only
	nodes     []*consensus.Node
	hbs       []*fd.Heartbeat // replica i's, then the client's (heartbeat mode only)

	// Rebuild state for RestartServer: the pieces a revived replica is
	// reassembled from. The WAL store is the deployment's disk — it, the
	// environment, and the network survive a replica's crash.
	cfg       ClusterConfig
	ids       []simnet.ProcessID
	serverEPs []*simnet.Endpoint
	fdEPs     []*simnet.Endpoint       // heartbeat mode only
	consEPs   []*simnet.Endpoint       // CT mode only
	detFor    []fd.Detector            // replica i's detector
	localCons *consensus.LocalProvider // shared provider in ConsensusLocal mode
	walStore  *wal.Store               // nil unless cfg.Durable
	crashAt   []time.Duration          // virtual crash instant per replica; -1 when live
}

// NewCluster assembles and starts a service. Building only schedules: the
// goroutines a replica starts are spawn events and its timers are armed,
// and none of them runs — nor does time move — until the caller's first
// wait on the clock (a Submit, a Sleep), by when the whole service stands.
// Between the caller's waits the service stays frozen at one instant.
// NewCluster is a new Cluster through Reset's build: a sweep keeps one
// cluster per worker and resets it for each seed instead.
func NewCluster(cfg ClusterConfig) *Cluster {
	c := new(Cluster)
	c.renew(cfg)
	c.build()
	return c
}

// Reset rebuilds c in place as the service NewCluster(cfg) builds and
// reports true. Every layer is reset on the storage of the one it
// replaces (the network, the servers at each index, their machines, the
// client, the detectors, the consensus layer, the environment, the
// observer, the stable storage), so a recycled group allocates little but
// what its run does. When cfg.Net names no clock, c keeps its own, rewound
// to time zero. It refuses, reporting false and changing nothing, unless
// c's clock is Quiesced: only then has nothing of the previous run a hold
// on them. A cluster is the one-group list of ResetGroups.
func (c *Cluster) Reset(cfg ClusterConfig) bool {
	return ResetGroups([]*Cluster{c}, func(int) ClusterConfig { return cfg })
}

// ResetGroups is Reset for clusters that share one clock, a sharded
// deployment's groups: with that clock Quiesced it resets groups[i] from
// cfg(i) in index order — building it new where groups[i] is nil — and
// reports true; otherwise it reports false and changes nothing. The groups
// cannot each check the clock in their own Reset, and every network is
// renewed before the first group is built: the first group built schedules
// its start on the clock, and a network's Reset refuses a clock with
// anything pending.
func ResetGroups(groups []*Cluster, cfg func(i int) ClusterConfig) bool {
	for _, g := range groups {
		if g != nil && !g.Clock().Quiesced() {
			return false
		}
	}
	for i := range groups {
		groups[i] = recycle.Ptr(groups[i])
		groups[i].renew(cfg(i))
	}
	for _, g := range groups {
		g.build()
	}
	return true
}

// renew makes cfg, its defaults resolved, c's config, and gives c the
// network cfg's run needs: c's own, renewed onto cfg.Net (simnet.Renew),
// kept where cfg registers the endpoints c's previous config did — the
// same Replicas, Detector and Consensus — and a new one otherwise.
func (c *Cluster) renew(cfg ClusterConfig) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Net.Seed == 0 {
		cfg.Net.Seed = cfg.Seed
	}
	same := cfg.Replicas == c.cfg.Replicas && cfg.Detector == c.cfg.Detector && cfg.Consensus == c.cfg.Consensus
	c.Net, c.cfg = simnet.Renew(c.Net, cfg.Net, same), cfg
}

// build is NewCluster's and Reset's one construction path: it assigns c
// whole, layer by layer on the network and from the config renew gave it,
// each on the storage of c's previous layer where there is one — none on a
// new Cluster.
func (c *Cluster) build() {
	cfg, net := c.cfg, c.Net
	n := cfg.Replicas
	old := *c
	observer := recycle.Ptr(old.Observer)
	observer.Reset()
	world := recycle.Ptr(old.Env)
	world.Reset(observer, cfg.Seed)

	*c = Cluster{
		Net:       net,
		Observer:  observer,
		Env:       world,
		Servers:   recycle.Len(old.Servers, n),
		cfg:       cfg,
		ids:       recycle.Len(old.ids, n),
		serverEPs: recycle.Len(old.serverEPs, n),
		detFor:    recycle.Len(old.detFor, n),
		crashAt:   recycle.Len(old.crashAt, n),
	}
	if cfg.Durable {
		c.walStore = recycle.Ptr(old.walStore)
		c.walStore.Reset(net.Clock(), wal.Config{
			SyncLatency:      cfg.WALSync,
			SnapshotSync:     cfg.WALSnapshotSync,
			CompactThreshold: cfg.WALCompact,
			Metrics:          net.Metrics(),
		})
	}
	for i := range c.ids {
		c.ids[i], c.crashAt[i] = ReplicaID(i), -1
	}
	ids := c.ids
	clientID := simnet.ProcessID("client")

	// Endpoints.
	for i, id := range ids {
		c.serverEPs[i] = net.Register(id)
	}
	clientEP := net.Register(clientID)

	// Failure detectors.
	var clientDet fd.Detector
	switch cfg.Detector {
	case DetectorHeartbeat:
		c.fdEPs = recycle.Len(old.fdEPs, n)
		c.hbs = recycle.Len(old.hbs, n+1)
		for i, id := range ids {
			c.fdEPs[i] = net.Register(fd.FDEndpoint(id))
			hb := c.newHeartbeat(i, recycle.Ptr(c.hbs[i]))
			hb.Start()
			c.hbs[i] = hb
			c.detFor[i] = hb
		}
		cep := net.Register(fd.FDEndpoint(clientID))
		chb := recycle.Ptr(c.hbs[n])
		chb.Reset(clientID, cep, ids, fd.HeartbeatConfig{Interval: cfg.HeartbeatInterval})
		chb.Start()
		c.hbs[n] = chb
		clientDet = chb
	default:
		c.scripted = recycle.Len(old.scripted, n)
		for i := range ids {
			d := recycle.Ptr(c.scripted[i])
			d.Reset(net)
			c.scripted[i] = d
			c.detFor[i] = d
		}
		c.clientDet = recycle.Ptr(old.clientDet)
		c.clientDet.Reset(net)
		clientDet = c.clientDet
	}

	// Consensus.
	switch cfg.Consensus {
	case ConsensusCT:
		c.consEPs = recycle.Len(old.consEPs, n)
		c.nodes = recycle.Len(old.nodes, n)
		for i, id := range ids {
			c.consEPs[i] = net.Register(consensus.ConsEndpoint(id))
			node := c.newNode(i, recycle.Ptr(c.nodes[i]))
			node.Start()
			c.nodes[i] = node
		}
	default:
		c.localCons = recycle.Ptr(old.localCons)
		c.localCons.Reset()
	}

	// Servers.
	for i := range ids {
		srv := c.newServer(i, recycle.Ptr(c.Servers[i]))
		srv.Start()
		c.Servers[i] = srv
	}

	c.Client = recycle.Ptr(old.Client)
	c.Client.Reset(ClientConfig{
		ID:       clientID,
		Endpoint: clientEP,
		Replicas: ids,
		Detector: clientDet,
	})
}

// newHeartbeat, newNode and newServer assemble one layer of replica i from
// the cluster's endpoints, detectors and stable storage, into the storage
// given — a new object for a restarted incarnation, the previous run's at
// index i for a recycled group. None is started: RestartServer recovers a
// node and a server from the log first. They stay one per layer, not one
// per replica: build registers and starts a whole layer before the next,
// and that order is part of every seed's schedule.
func (c *Cluster) newHeartbeat(i int, hb *fd.Heartbeat) *fd.Heartbeat {
	hb.Reset(c.ids[i], c.fdEPs[i], c.ids, fd.HeartbeatConfig{Interval: c.cfg.HeartbeatInterval})
	return hb
}

func (c *Cluster) newNode(i int, node *consensus.Node) *consensus.Node {
	id := c.ids[i]
	node.Reset(id, c.consEPs[i], c.ids, c.detFor[i])
	if c.walStore != nil {
		node.SetLog(c.walStore.Log(consLogName(id)))
	}
	return node
}

func (c *Cluster) newServer(i int, srv *Server) *Server {
	id := c.ids[i]
	// The machine seed depends on the replica only, never the incarnation:
	// recovery must not re-roll the replica's nondeterminism, or replayed
	// folds diverge.
	mach := recycle.Ptr(srv.mach)
	mach.Reset(string(id), c.cfg.Registry, c.Env, c.cfg.Seed+int64(i)*7919+1)
	if c.cfg.Setup != nil {
		c.cfg.Setup(mach)
	}
	var prov consensus.Provider = c.localCons
	if c.nodes != nil {
		prov = c.nodes[i]
	}
	var slog *wal.Log
	if c.walStore != nil {
		slog = c.walStore.Log(string(id))
	}
	srv.Reset(ServerConfig{
		ID:        id,
		Endpoint:  c.serverEPs[i],
		Machine:   mach,
		Detector:  c.detFor[i],
		Consensus: prov,
		Network:   c.Net,
		Batch:     c.cfg.Batch,
		Costs:     c.cfg.Costs,
		Log:       slog,
	})
	return srv
}

// Clock returns the cluster's clock: the deployment's shared one that
// ClusterConfig.Net.Clock names, or else the cluster's own — new at
// NewCluster, rewound by each Reset. Scenario drivers schedule fault
// injection on it — Clock().Go with a Clock().Sleep — so injections land
// at fixed points of simulated time regardless of how fast the host
// executes the run.
func (c *Cluster) Clock() *vclock.Virtual { return c.Net.Clock() }

// Network returns the cluster's simulated network. Scenario drivers reach
// through it to the link fault plane (Partition, Heal, SetDelayScale).
func (c *Cluster) Network() *simnet.Network { return c.Net }

// Suspect injects (or clears) a suspicion at one replica's scripted
// detector. It panics in heartbeat mode.
func (c *Cluster) Suspect(observer, target simnet.ProcessID, v bool) {
	for i, id := range c.ids {
		if id == observer && c.scripted != nil {
			c.scripted[i].SetSuspected(target, v)
			return
		}
	}
	panic(fmt.Sprintf("core: no scripted detector for %s", observer))
}

// SuspectEverywhere injects a suspicion of target at every replica's
// scripted detector (not the client's).
func (c *Cluster) SuspectEverywhere(target simnet.ProcessID, v bool) {
	for i, d := range c.scripted {
		if c.ids[i] != target {
			d.SetSuspected(target, v)
		}
	}
}

// ClientSuspect injects a suspicion at the client's scripted detector.
func (c *Cluster) ClientSuspect(target simnet.ProcessID, v bool) {
	c.clientDet.SetSuspected(target, v)
}

// CrashServer crashes replica i. Scripted detectors treat crashed
// processes as suspected automatically (strong completeness). With
// stable storage, the crash instant also tears the replica's unsynced
// WAL suffix: a record whose sync was still in flight was never durable
// (torn-tail semantics), so the next incarnation must not replay it.
func (c *Cluster) CrashServer(i int) {
	id := c.ids[i]
	first := !c.Net.Crashed(id)
	c.Servers[i].Crash()
	if c.walStore != nil {
		c.walStore.Crash(string(id), consLogName(id))
	}
	if first && c.crashAt != nil {
		c.crashAt[i] = c.Clock().Now()
	}
}

// consLogName names a replica's consensus-acceptor log in the WAL store,
// kept distinct from the server log so the two layers replay independently.
func consLogName(id simnet.ProcessID) string { return string(consensus.ConsEndpoint(id)) }

// ReplicaID names replica i of a cluster, "replica-i". Each name is built
// once per program and shared by every later run.
func ReplicaID(i int) simnet.ProcessID { return replicaIDs.Get(i) }

var replicaIDs = memo.New(func(i int) simnet.ProcessID { return simnet.ProcessID(fmt.Sprintf("replica-%d", i)) })

// RestartServer revives crashed replica i from stable storage: a fresh
// incarnation (machine, consensus node, detector, server) is rebuilt on the
// reopened endpoints and recovers its durable state by replaying the WAL.
// It reports false — and does nothing — when the replica never crashed
// (mirroring simnet.Crash's idempotence in the other direction) or when the
// cluster has no stable storage, where a restart would resurrect a replica
// with amnesia: worse than leaving it dead, it could re-execute effects.
//
// The in-memory state of the crashed incarnation is deliberately not
// consulted: everything the new incarnation knows, it learned from the log.
func (c *Cluster) RestartServer(i int) bool {
	if i < 0 || i >= len(c.Servers) || c.walStore == nil {
		return false
	}
	id := c.ids[i]
	if !c.Net.Crashed(id) {
		return false
	}
	// Tear down the dead incarnation's remaining goroutines (Crash already
	// stopped the Server; the consensus node and heartbeat are per-replica
	// processes that died with it), then drain the clock so every goroutine
	// of the old incarnation has observed the stop and unwound. Reopening
	// endpoints before that would let a zombie receiver re-attach and steal
	// the new incarnation's messages.
	if c.nodes != nil {
		c.nodes[i].Stop()
	}
	if len(c.hbs) > i {
		c.hbs[i].Stop()
	}
	c.Servers[i].Stop()
	c.Clock().Drain()
	c.Net.Restart(id)
	c.Net.Restart(fd.FDEndpoint(id))
	c.Net.Restart(consensus.ConsEndpoint(id))
	c.Net.Metrics().Inc(obs.Restarts)
	c.Net.Trace().Instant(c.Clock().Now(), string(id), "restart", "")

	if len(c.hbs) > i {
		hb := c.newHeartbeat(i, new(fd.Heartbeat))
		hb.Start()
		c.hbs[i] = hb
		c.detFor[i] = hb
	}
	if c.nodes != nil {
		node := c.newNode(i, new(consensus.Node))
		node.Recover()
		node.Start()
		c.nodes[i] = node
	}
	srv := c.newServer(i, new(Server))
	srv.Recover()
	srv.Start()
	c.Servers[i] = srv
	if c.crashAt != nil && c.crashAt[i] >= 0 {
		c.Net.Metrics().ObserveRecovery(c.Clock().Now() - c.crashAt[i])
		c.crashAt[i] = -1
	}
	return true
}

// WALStats reports the stable-storage activity of the run (zero when the
// cluster is not durable) for T12's sync-tariff cost curves.
func (c *Cluster) WALStats() wal.Stats {
	if c.walStore == nil {
		return wal.Stats{}
	}
	return c.walStore.Stats()
}

// Durable reports whether the cluster was built with stable storage.
func (c *Cluster) Durable() bool { return c.walStore != nil }

// Machine returns replica i's state machine.
func (c *Cluster) Machine(i int) *sm.Machine { return c.Servers[i].mach }

// OpenStation builds the open-loop station over the cluster's client
// endpoint and detector (the closed-loop Client must then stay unused for
// the run: both would drain the same mailbox).
func (c *Cluster) OpenStation() *Station {
	return NewStation(StationConfig{
		ID:       c.Client.id,
		Endpoint: c.Client.ep,
		Replicas: c.Client.replicas,
		Detector: c.Client.det,
	})
}

// Stop shuts the whole cluster down.
func (c *Cluster) Stop() {
	for _, s := range c.Servers {
		s.Stop()
	}
	for _, hb := range c.hbs {
		hb.Stop()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	c.Net.Close()
}
