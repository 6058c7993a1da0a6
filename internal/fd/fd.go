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
	"sync"
	"time"

	"xability/internal/obs"
	"xability/internal/simnet"
	"xability/internal/vclock"
)

// Detector is the suspect() predicate of §5.3: Suspect(p) reports whether
// the owning process currently suspects p to have crashed.
type Detector interface {
	Suspect(p simnet.ProcessID) bool
}

// Scripted is a detector whose suspicions are set explicitly. It is safe
// for concurrent use. The zero value suspects nobody.
type Scripted struct {
	mu        sync.RWMutex
	suspected map[simnet.ProcessID]bool
	net       *simnet.Network
	m         *obs.Metrics
}

// NewScripted returns an empty scripted detector. If net is non-nil,
// crashed processes are always suspected (strong completeness comes for
// free in tests).
func NewScripted(net *simnet.Network) *Scripted {
	s := &Scripted{suspected: make(map[simnet.ProcessID]bool), net: net}
	if net != nil {
		s.m = net.Metrics()
	}
	return s
}

// SetSuspected marks p as suspected (true) or trusted (false).
func (s *Scripted) SetSuspected(p simnet.ProcessID, v bool) {
	s.mu.Lock()
	was := s.suspected[p]
	s.suspected[p] = v
	s.mu.Unlock()
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.suspected[p]
}

// Heartbeat is a ◇P-style detector driven by heartbeat messages over
// simnet. Each process runs one Heartbeat instance; Start arms the sender
// and installs the receive handler, Stop terminates the sender. Neither
// side has a goroutine: the sender is a vclock.Timer whose ticks run on
// the clock's pump (Run), the receiver an endpoint handler.
type Heartbeat struct {
	dests    []simnet.ProcessID // FDEndpoint of each peer, named once
	beat     any                // the heartbeat payload (self), boxed once
	ep       *simnet.Endpoint
	clk      *vclock.Virtual
	interval time.Duration
	timer    *vclock.Timer

	mu       sync.Mutex
	state    map[simnet.ProcessID]*peerState // one entry per peer, fixed at construction
	stop     chan struct{}
	stopOnce sync.Once

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
// it together with its main endpoint.
func FDEndpoint(p simnet.ProcessID) simnet.ProcessID { return p + "/fd" }

// NewHeartbeat builds a heartbeat detector for self, monitoring peers
// (protocol process IDs; heartbeats travel between their FDEndpoint
// endpoints). ep must be the endpoint registered as FDEndpoint(self).
func NewHeartbeat(self simnet.ProcessID, ep *simnet.Endpoint, peers []simnet.ProcessID, cfg HeartbeatConfig) *Heartbeat {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	h := &Heartbeat{
		dests:    make([]simnet.ProcessID, len(peers)),
		beat:     self,
		ep:       ep,
		clk:      ep.Clock(),
		interval: cfg.Interval,
		state:    make(map[simnet.ProcessID]*peerState, len(peers)),
		stop:     make(chan struct{}),
		m:        ep.Metrics(),
	}
	h.timer = h.clk.NewTimer(h)
	now := h.clk.Now()
	states := make([]peerState, len(peers))
	for i, p := range peers {
		h.dests[i] = FDEndpoint(p)
		states[i] = peerState{lastSeen: now, timeout: 3 * cfg.Interval}
		h.state[p] = &states[i]
	}
	return h
}

// Start arms the heartbeat sender on the network clock — the first beat
// one interval on, later beats every interval (Run) — and takes over the
// endpoint's deliveries: receiving a heartbeat is a state update, so it
// runs as the endpoint's handler, not on a goroutine. Arming runs nothing:
// the first beat waits for someone's wait on the clock.
func (h *Heartbeat) Start() {
	h.timer.Reset(h.interval)
	h.ep.Handle(h.onMessage)
}

// Stop terminates the sender: the next tick sends nothing and does not
// re-arm. The handler stays on the endpoint until the process crashes or
// the network is recycled; a heartbeat that still arrives only refreshes
// state nobody reads.
func (h *Heartbeat) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
}

func (h *Heartbeat) stopped() bool {
	select {
	case <-h.stop:
		return true
	default:
		return false
	}
}

// Run is one tick of the sender (vclock.Runner: it runs on the clock's
// pump and only sends): a beat to every peer, then the next tick one
// interval on.
func (h *Heartbeat) Run() {
	if h.stopped() {
		return
	}
	for _, to := range h.dests {
		h.ep.Send(to, "heartbeat", h.beat)
	}
	h.timer.Reset(h.interval)
}

// onMessage is the endpoint handler (simnet.Endpoint.Handle): it runs on
// the delivery, so it only updates state under h.mu and never blocks.
// Heartbeats from processes this detector does not monitor are ignored.
func (h *Heartbeat) onMessage(msg simnet.Message) {
	if msg.Type != "heartbeat" {
		return
	}
	from, _ := msg.Payload.(simnet.ProcessID)
	now := h.clk.Now()
	h.mu.Lock()
	ps := h.state[from]
	if ps == nil {
		h.mu.Unlock()
		return
	}
	// A heartbeat from a previously suspected process proves the
	// suspicion false: double its timeout (eventual strong accuracy).
	unsuspected := false
	if now-ps.lastSeen > ps.timeout {
		ps.timeout *= 2
		unsuspected = ps.overdue
	}
	ps.lastSeen = now
	ps.overdue = false
	h.mu.Unlock()
	if unsuspected {
		h.m.Inc(obs.FDUnsuspicions)
	}
}

// Suspect implements Detector: true when the peer's heartbeat is overdue.
// The trusted→suspected transition is counted once per episode (the
// overdue flag resets when a heartbeat arrives), not per query.
func (h *Heartbeat) Suspect(p simnet.ProcessID) bool {
	now := h.clk.Now()
	h.mu.Lock()
	ps := h.state[p]
	if ps == nil {
		h.mu.Unlock()
		return false
	}
	over := now-ps.lastSeen > ps.timeout
	fresh := over && !ps.overdue
	if over {
		ps.overdue = true
	}
	h.mu.Unlock()
	if fresh {
		h.m.Inc(obs.FDSuspicions)
	}
	return over
}
