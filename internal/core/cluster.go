package core

import (
	"fmt"
	"time"

	"xability/internal/action"
	"xability/internal/consensus"
	"xability/internal/env"
	"xability/internal/fd"
	"xability/internal/obs"
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
	// Network, when non-nil, deploys onto an existing network instead of
	// building one from Net — the sweep runner passes a Reset network here
	// so consecutive seeds reuse the substrate (endpoints, interning,
	// event pools) instead of allocating a fresh world. The network must
	// have been Reset with the run's config; Net is ignored.
	Network *simnet.Network
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
	// writes (zero derives WALSync/4; negative is explicitly free).
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

	scripted  map[simnet.ProcessID]*fd.Scripted
	clientDet *fd.Scripted
	nodes     []*consensus.Node
	hbs       []*fd.Heartbeat

	// Rebuild state for RestartServer: the pieces a revived replica is
	// reassembled from. The WAL store is the deployment's disk — it, the
	// environment, and the network survive a replica's crash.
	cfg       ClusterConfig
	ids       []simnet.ProcessID
	serverEPs []*simnet.Endpoint
	fdEPs     []*simnet.Endpoint // heartbeat mode only
	consEPs   []*simnet.Endpoint // CT mode only
	detFor    map[simnet.ProcessID]fd.Detector
	localCons consensus.Provider // shared provider in ConsensusLocal mode
	walStore  *wal.Store         // nil unless cfg.Durable
	crashAt   []time.Duration    // virtual crash instant per replica; -1 when live
}

// NewCluster assembles and starts a service. Building only schedules: the
// goroutines a replica starts are spawn events and its timers are armed,
// and none of them runs — nor does time move — until the caller's first
// wait on the clock (a Submit, a Sleep), by when the whole service stands.
// Between the caller's waits the service stays frozen at one instant.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Net.Seed == 0 {
		cfg.Net.Seed = cfg.Seed
	}
	net := cfg.Network
	if net == nil {
		net = simnet.New(cfg.Net)
	}
	observer := trace.New()
	world := env.New(observer, cfg.Seed)

	c := &Cluster{
		Net:      net,
		Observer: observer,
		Env:      world,
		scripted: make(map[simnet.ProcessID]*fd.Scripted),
		detFor:   make(map[simnet.ProcessID]fd.Detector),
		cfg:      cfg,
	}
	if cfg.Durable {
		c.walStore = wal.NewStore(net.Clock(), wal.Config{
			SyncLatency:      cfg.WALSync,
			SnapshotSync:     cfg.WALSnapshotSync,
			CompactThreshold: cfg.WALCompact,
			Metrics:          net.Metrics(),
		})
	}
	c.crashAt = make([]time.Duration, cfg.Replicas)
	for i := range c.crashAt {
		c.crashAt[i] = -1
	}

	ids := make([]simnet.ProcessID, cfg.Replicas)
	for i := range ids {
		ids[i] = simnet.ProcessID(fmt.Sprintf("replica-%d", i))
	}
	c.ids = ids
	clientID := simnet.ProcessID("client")

	// Endpoints.
	serverEPs := make([]*simnet.Endpoint, cfg.Replicas)
	for i, id := range ids {
		serverEPs[i] = net.Register(id)
	}
	c.serverEPs = serverEPs
	clientEP := net.Register(clientID)

	// Failure detectors.
	var clientDet fd.Detector
	switch cfg.Detector {
	case DetectorHeartbeat:
		for i, id := range ids {
			c.fdEPs = append(c.fdEPs, net.Register(fd.FDEndpoint(id)))
			hb := c.newHeartbeat(i)
			hb.Start()
			c.hbs = append(c.hbs, hb)
			c.detFor[id] = hb
		}
		cep := net.Register(fd.FDEndpoint(clientID))
		chb := fd.NewHeartbeat(clientID, cep, ids, fd.HeartbeatConfig{Interval: cfg.HeartbeatInterval})
		chb.Start()
		c.hbs = append(c.hbs, chb)
		clientDet = chb
	default:
		for _, id := range ids {
			d := fd.NewScripted(net)
			c.scripted[id] = d
			c.detFor[id] = d
		}
		cd := fd.NewScripted(net)
		c.clientDet = cd
		clientDet = cd
	}

	// Consensus.
	switch cfg.Consensus {
	case ConsensusCT:
		for i, id := range ids {
			c.consEPs = append(c.consEPs, net.Register(consensus.ConsEndpoint(id)))
			node := c.newNode(i)
			node.Start()
			c.nodes = append(c.nodes, node)
		}
	default:
		c.localCons = consensus.NewLocalProvider()
	}

	// Servers.
	for i := range ids {
		srv := c.newServer(i)
		srv.Start()
		c.Servers = append(c.Servers, srv)
	}

	c.Client = NewClient(ClientConfig{
		ID:       clientID,
		Endpoint: clientEP,
		Replicas: ids,
		Detector: clientDet,
	})
	return c
}

// newHeartbeat, newNode and newServer assemble one layer of replica i from
// the cluster's endpoints, detectors and stable storage — for a first
// incarnation and a restarted one alike. None is started: RestartServer
// recovers a node and a server from the log first. They stay one per layer,
// not one per replica: NewCluster registers and starts a whole layer before
// the next, and that order is part of every seed's schedule.
func (c *Cluster) newHeartbeat(i int) *fd.Heartbeat {
	return fd.NewHeartbeat(c.ids[i], c.fdEPs[i], c.ids, fd.HeartbeatConfig{Interval: c.cfg.HeartbeatInterval})
}

func (c *Cluster) newNode(i int) *consensus.Node {
	id := c.ids[i]
	node := consensus.NewNode(id, c.consEPs[i], c.ids, c.detFor[id])
	if c.walStore != nil {
		node.SetLog(c.walStore.Log(consLogName(id)))
	}
	return node
}

func (c *Cluster) newServer(i int) *Server {
	id := c.ids[i]
	// The machine seed depends on the replica only, never the incarnation:
	// recovery must not re-roll the replica's nondeterminism, or replayed
	// folds diverge.
	mach := sm.New(string(id), c.cfg.Registry, c.Env, c.cfg.Seed+int64(i)*7919+1)
	if c.cfg.Setup != nil {
		c.cfg.Setup(mach)
	}
	prov := c.localCons
	if c.nodes != nil {
		prov = c.nodes[i]
	}
	var slog *wal.Log
	if c.walStore != nil {
		slog = c.walStore.Log(string(id))
	}
	return NewServer(ServerConfig{
		ID:        id,
		Endpoint:  c.serverEPs[i],
		Machine:   mach,
		Detector:  c.detFor[id],
		Consensus: prov,
		Network:   c.Net,
		Batch:     c.cfg.Batch,
		Costs:     c.cfg.Costs,
		Log:       slog,
	})
}

// Clock returns the cluster's clock (a fresh one, unless
// ClusterConfig.Net.Clock supplies the deployment's shared clock). Scenario
// drivers schedule fault injection on it — Clock().Go with a Clock().Sleep
// — so injections land at fixed points of simulated time regardless of how
// fast the host executes the run.
func (c *Cluster) Clock() *vclock.Virtual { return c.Net.Clock() }

// Network returns the cluster's simulated network. Scenario drivers reach
// through it to the link fault plane (Partition, Heal, SetDelayScale).
func (c *Cluster) Network() *simnet.Network { return c.Net }

// Suspect injects (or clears) a suspicion at one replica's scripted
// detector. It panics in heartbeat mode.
func (c *Cluster) Suspect(observer, target simnet.ProcessID, v bool) {
	d, ok := c.scripted[observer]
	if !ok {
		panic(fmt.Sprintf("core: no scripted detector for %s", observer))
	}
	d.SetSuspected(target, v)
}

// SuspectEverywhere injects a suspicion of target at every replica's
// scripted detector (not the client's).
func (c *Cluster) SuspectEverywhere(target simnet.ProcessID, v bool) {
	for id, d := range c.scripted {
		if id != target {
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
func consLogName(id simnet.ProcessID) string { return string(id) + "/cons" }

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
		hb := c.newHeartbeat(i)
		hb.Start()
		c.hbs[i] = hb
		c.detFor[id] = hb
	}
	if c.nodes != nil {
		node := c.newNode(i)
		node.Recover()
		node.Start()
		c.nodes[i] = node
	}
	srv := c.newServer(i)
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
