package baseline

import (
	"time"

	"xability/internal/core"
	"xability/internal/env"
	"xability/internal/fd"
	"xability/internal/simnet"
	"xability/internal/trace"
	"xability/internal/vclock"
)

// Scheme selects the baseline protocol.
type Scheme int

const (
	// PrimaryBackup runs the [BMST93]-style scheme.
	PrimaryBackup Scheme = iota
	// Active runs the [Sch93]-style scheme.
	Active
)

// ClusterConfig describes a baseline deployment.
type ClusterConfig struct {
	Scheme   Scheme
	Replicas int
	Seed     int64
	Net      simnet.Config
	Handler  Handler
	// SyncDelay widens primary-backup's duplication window (tests).
	SyncDelay time.Duration
}

// Cluster is an assembled baseline service with the same observable
// surface as core.Cluster: a shared environment, an observer, and the same
// client — Figure 5's stub, with its retry discipline (submit to replica i,
// fail over on suspicion) but without any idempotence guarantee from the
// service behind it, which is the point.
type Cluster struct {
	Net      *simnet.Network
	Observer *trace.Observer
	Env      *env.Env
	Client   *core.Client

	pbs  []*PBServer
	acts []*ActiveServer
	dets map[simnet.ProcessID]*fd.Scripted
	cdet *fd.Scripted
}

// NewCluster assembles and starts a baseline service; like core.NewCluster
// it only schedules, and nothing runs until the caller's first wait.
func NewCluster(cfg ClusterConfig) *Cluster {
	c := new(Cluster)
	c.Reset(cfg)
	return c
}

// Reset rebuilds c in place as the service NewCluster(cfg) builds and
// reports true. It keeps c's network (simnet.Renew) where cfg registers as
// many replicas as c's previous config did, and, when cfg.Net names no
// clock, c's own clock rewound to time zero; the servers, detectors,
// client, environment and observer are new. It refuses, reporting false
// and changing nothing, unless c's clock is Quiesced.
func (c *Cluster) Reset(cfg ClusterConfig) bool {
	if c.Net != nil && !c.Clock().Quiesced() {
		return false
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Net.Seed == 0 {
		cfg.Net.Seed = cfg.Seed
	}
	net := simnet.Renew(c.Net, cfg.Net, len(c.pbs)+len(c.acts) == cfg.Replicas)
	observer := trace.New()
	world := env.New(observer, cfg.Seed)
	*c = Cluster{Net: net, Observer: observer, Env: world, dets: make(map[simnet.ProcessID]*fd.Scripted)}

	ids := make([]simnet.ProcessID, cfg.Replicas)
	for i := range ids {
		ids[i] = core.ReplicaID(i)
	}
	clientID := simnet.ProcessID("client")

	for _, id := range ids {
		ep := net.Register(id)
		det := fd.NewScripted(net)
		c.dets[id] = det
		switch cfg.Scheme {
		case Active:
			srv := NewActiveServer(ActiveConfig{
				ID: id, Endpoint: ep, Order: ids, Env: world, Handler: cfg.Handler, Network: net,
			})
			srv.Start()
			c.acts = append(c.acts, srv)
		default:
			srv := NewPBServer(PBConfig{
				ID: id, Endpoint: ep, Order: ids, Detector: det, Env: world,
				Handler: cfg.Handler, Network: net, SyncDelay: cfg.SyncDelay,
			})
			srv.Start()
			c.pbs = append(c.pbs, srv)
		}
	}

	c.cdet = fd.NewScripted(net)
	clientEP := net.Register(clientID)
	c.Client = core.NewClient(core.ClientConfig{
		ID:       clientID,
		Endpoint: clientEP,
		Replicas: ids,
		Detector: c.cdet,
	})
	return true
}

// Clock returns the cluster's clock. Scenario drivers schedule fault
// injection on it so injections land at fixed points of simulated time.
func (c *Cluster) Clock() *vclock.Virtual { return c.Net.Clock() }

// Network returns the cluster's simulated network. Scenario drivers reach
// through it to the link fault plane.
func (c *Cluster) Network() *simnet.Network { return c.Net }

// SuspectEverywhere injects (or clears) a suspicion of target at every
// replica's scripted detector (not the client's) — the same surface
// core.Cluster exposes, so one scenario fault plan drives both stacks.
func (c *Cluster) SuspectEverywhere(target simnet.ProcessID, v bool) {
	for id, d := range c.dets {
		if id != target {
			d.SetSuspected(target, v)
		}
	}
}

// ClientSuspect injects (or clears) a suspicion at the client's detector.
func (c *Cluster) ClientSuspect(target simnet.ProcessID, v bool) {
	c.cdet.SetSuspected(target, v)
}

// Detector returns the scripted detector of a replica.
func (c *Cluster) Detector(id simnet.ProcessID) *fd.Scripted { return c.dets[id] }

// CrashServer crashes replica i.
func (c *Cluster) CrashServer(i int) {
	if len(c.pbs) > 0 {
		c.pbs[i].Crash()
	} else {
		c.acts[i].Crash()
	}
}

// PB returns the primary-backup server i (nil for active clusters).
func (c *Cluster) PB(i int) *PBServer {
	if len(c.pbs) == 0 {
		return nil
	}
	return c.pbs[i]
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	for _, s := range c.pbs {
		s.Stop()
	}
	for _, s := range c.acts {
		s.Stop()
	}
	c.Net.Close()
}
