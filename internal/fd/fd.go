// Package fd implements the failure-detector abstractions of §5.2 [CT96].
//
// The protocol needs two detector qualities:
//
//   - The client's detector must satisfy strong completeness: eventually,
//     every crashed replica is suspected.
//   - The replicas' detector must be eventually perfect (◇P): strong
//     completeness plus eventual strong accuracy — eventually, no replica
//     is suspected unless it has crashed.
//
// Two implementations are provided. Scripted is an oracle whose suspicions
// are injected by the test or scenario driver; it makes false-suspicion
// schedules deterministic and is how the experiments drive the protocol
// across its primary-backup ↔ active-replication spectrum. Heartbeat is a
// real detector over simnet: processes gossip heartbeats, a peer is
// suspected when its heartbeat is overdue, and the timeout doubles after
// each false suspicion, giving eventual accuracy once the timeout exceeds
// the network's maximum delay. All heartbeat timing runs on the network's
// clock, so under the default virtual clock detection latency costs no
// wall time.
package fd

import (
	"time"

	"xability/internal/memo"
	"xability/internal/obs"
	"xability/internal/recycle"
	"xability/internal/simnet"
	"xability/internal/vclock"
)

// Detector is the suspect() predicate of §5.3: Suspect(p) reports whether
// the owning process currently suspects p to have crashed.
type Detector interface {
	Suspect(p simnet.ProcessID) bool
}

// Scripted is a detector whose suspicions are set explicitly. Like every
// object of a world it is touched only by the clock's running unit (see
// vclock). The zero value suspects nobody.
type Scripted struct {
	suspected map[simnet.ProcessID]bool
	net       *simnet.Network
	m         *obs.Metrics
}

// NewScripted returns an empty scripted detector. If net is non-nil,
// crashed processes are always suspected (strong completeness comes for
// free in tests).
func NewScripted(net *simnet.Network) *Scripted {
	s := new(Scripted)
	s.Reset(net)
	return s
}

// Reset makes s the detector NewScripted(net) builds, keeping the storage
// of its suspicion table.
func (s *Scripted) Reset(net *simnet.Network) {
	var m *obs.Metrics
	if net != nil {
		m = net.Metrics()
	}
	clear(s.suspected)
	*s = Scripted{suspected: s.suspected, net: net, m: m}
}

// SetSuspected marks p as suspected (true) or trusted (false).
func (s *Scripted) SetSuspected(p simnet.ProcessID, v bool) {
	if s.suspected == nil {
		s.suspected = make(map[simnet.ProcessID]bool)
	}
	was := s.suspected[p]
	s.suspected[p] = v
	if v && !was {
		s.m.Inc(obs.FDSuspicions)
	} else if !v && was {
		s.m.Inc(obs.FDUnsuspicions)
	}
}

// Suspect implements Detector.
func (s *Scripted) Suspect(p simnet.ProcessID) bool {
	if s.net != nil && s.net.Crashed(p) {
		return true
	}
	return s.suspected[p]
}

// Heartbeat is a ◇P-style detector driven by heartbeat messages over
// simnet. Each process runs one Heartbeat instance; Start arms the sender
// and installs the receive handler, Stop terminates the sender. Neither
// side has a goroutine: the sender is a vclock.Timer whose ticks run on
// the clock's pump (Run), the receiver an endpoint handler.
type Heartbeat struct {
	dests    []simnet.ProcessID // FDEndpoint of each peer, named once
	beat     any                // the heartbeat payload (self), boxed once per program
	ep       *simnet.Endpoint
	clk      *vclock.Virtual
	interval time.Duration
	timer    vclock.Timer
	recv     func(simnet.Message) // onMessage, bound once per Heartbeat
	stopped  bool

	state map[simnet.ProcessID]*peerState // one entry per peer, fixed at construction
	peers []peerState                     // what state points into

	m *obs.Metrics
}

// peerState is what the detector knows about one monitored peer.
type peerState struct {
	lastSeen time.Duration
	timeout  time.Duration
	overdue  bool // last Suspect verdict, for transition counting
}

// HeartbeatConfig tunes the detector.
type HeartbeatConfig struct {
	// Interval between heartbeats. The initial suspicion timeout is
	// 3×Interval and doubles on each false suspicion (adaptive accuracy).
	Interval time.Duration
}

// FDEndpoint returns the conventional process ID of p's failure-detector
// endpoint. Each monitored process registers this extra endpoint so that
// heartbeat traffic does not interleave with protocol messages, and crashes
// it together with its main endpoint. Each name is built once per program
// and shared by every later run.
func FDEndpoint(p simnet.ProcessID) simnet.ProcessID { return fdNames.Get(p) }

var fdNames = memo.New(func(p simnet.ProcessID) simnet.ProcessID { return p + "/fd" })

// beats holds each process's heartbeat payload, its ID boxed once per
// program.
var beats = memo.New(func(p simnet.ProcessID) any { return p })

// NewHeartbeat builds a heartbeat detector for self, monitoring peers
// (protocol process IDs; heartbeats travel between their FDEndpoint
// endpoints). ep must be the endpoint registered as FDEndpoint(self).
func NewHeartbeat(self simnet.ProcessID, ep *simnet.Endpoint, peers []simnet.ProcessID, cfg HeartbeatConfig) *Heartbeat {
	h := new(Heartbeat)
	h.Reset(self, ep, peers, cfg)
	return h
}

// Reset makes h the detector NewHeartbeat builds, keeping the storage of
// its destination list and its peer table and its bound handler. The
// sender's timer is re-initialised in place, so a used h's clock must be
// Quiesced.
func (h *Heartbeat) Reset(self simnet.ProcessID, ep *simnet.Endpoint, peers []simnet.ProcessID, cfg HeartbeatConfig) {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	clk := ep.Clock()
	*h = Heartbeat{
		dests:    recycle.Len(h.dests, len(peers)),
		beat:     beats.Get(self),
		ep:       ep,
		clk:      clk,
		interval: cfg.Interval,
		recv:     h.recv,
		state:    recycle.Map(h.state, len(peers)),
		peers:    recycle.Len(h.peers, len(peers)),
		m:        ep.Metrics(),
	}
	if h.recv == nil {
		h.recv = h.onMessage
	}
	clk.InitTimer(&h.timer, h)
	now := clk.Now()
	for i, p := range peers {
		h.dests[i] = FDEndpoint(p)
		h.peers[i] = peerState{lastSeen: now, timeout: 3 * cfg.Interval}
		h.state[p] = &h.peers[i]
	}
}

// Start arms the heartbeat sender on the network clock — the first beat
// one interval on, later beats every interval (Run) — and takes over the
// endpoint's deliveries: receiving a heartbeat is a state update, so it
// runs as the endpoint's handler, not on a goroutine. Arming runs nothing:
// the first beat waits for someone's wait on the clock.
func (h *Heartbeat) Start() {
	h.timer.Reset(h.interval)
	h.ep.Handle(h.recv)
}

// Stop terminates the sender: the next tick sends nothing and does not
// re-arm. The handler stays on the endpoint until the process crashes or
// the network is recycled; a heartbeat that still arrives only refreshes
// state nobody reads.
func (h *Heartbeat) Stop() { h.stopped = true }

// Run is one tick of the sender (vclock.Runner: it runs on the clock's
// pump and only sends): a beat to every peer, then the next tick one
// interval on.
func (h *Heartbeat) Run() {
	if h.stopped {
		return
	}
	for _, to := range h.dests {
		h.ep.Send(to, "heartbeat", h.beat)
	}
	h.timer.Reset(h.interval)
}

// onMessage is the endpoint handler (simnet.Endpoint.Handle): it runs on
// the delivery, so it only updates state and never blocks.
// Heartbeats from processes this detector does not monitor are ignored.
func (h *Heartbeat) onMessage(msg simnet.Message) {
	if msg.Type != "heartbeat" {
		return
	}
	from, _ := msg.Payload.(simnet.ProcessID)
	ps := h.state[from]
	if ps == nil {
		return
	}
	now := h.clk.Now()
	// A heartbeat from a previously suspected process proves the
	// suspicion false: double its timeout (eventual strong accuracy).
	unsuspected := false
	if now-ps.lastSeen > ps.timeout {
		ps.timeout *= 2
		unsuspected = ps.overdue
	}
	ps.lastSeen = now
	ps.overdue = false
	if unsuspected {
		h.m.Inc(obs.FDUnsuspicions)
	}
}

// Suspect implements Detector: true when the peer's heartbeat is overdue.
// The trusted→suspected transition is counted once per episode (the
// overdue flag resets when a heartbeat arrives), not per query.
func (h *Heartbeat) Suspect(p simnet.ProcessID) bool {
	ps := h.state[p]
	if ps == nil {
		return false
	}
	over := h.clk.Now()-ps.lastSeen > ps.timeout
	fresh := over && !ps.overdue
	if over {
		ps.overdue = true
	}
	if fresh {
		h.m.Inc(obs.FDSuspicions)
	}
	return over
}
