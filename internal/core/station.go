package core

import (
	"sync"
	"time"

	"xability/internal/action"
	"xability/internal/fd"
	"xability/internal/obs"
	"xability/internal/simnet"
	"xability/internal/vclock"
)

// Station is the open-loop client multiplexer: it drives many concurrent
// single-request sessions over one endpoint, where the closed-loop Client
// of client.go drives exactly one session at a time. A background receiver
// drains the endpoint and demultiplexes MsgResult by request ID to the
// in-flight sessions, so thousands of them share one mailbox (and one
// delay stream — the Station reuses the cluster's existing "client"
// endpoint, keeping the network's seeded delay plan identical whether a
// run is open- or closed-loop).
//
// Each session follows Figure 5's submit discipline independently: send to
// a replica, await a result or a suspicion, fail over on suspicion. A
// paced re-send covers the open-loop-specific hole that a dropped submit
// of a session nobody is watching would otherwise never be retried. A
// session has no goroutine: it is a state machine whose steps run on the
// clock's pump (see stationCall.Run), woken by its own vclock.Timer.
type Station struct {
	id       simnet.ProcessID
	ep       *simnet.Endpoint
	clk      *vclock.Virtual
	replicas []simnet.ProcessID
	det      fd.Detector
	m        *obs.Metrics // nil-safe run metrics
	tr       *obs.Trace   // nil-safe span recorder

	mu      sync.Mutex
	cond    *vclock.Cond            // Drive's join
	waiting map[string]*stationCall // in-flight sessions by request ID
	// The same sessions in arrival order, so the stop path wakes them in
	// an order that does not depend on map iteration.
	first, last *stationCall
	attempts    int
	stopped     bool

	// completion log for the verifier, in completion order (deterministic
	// under the virtual clock)
	requests  []action.Request
	replies   []action.Value
	latencies []time.Duration
}

// stationCall is one session: Figure 5's submit loop cut at its waits. Its
// timer runs Run at the arrival, at each poll expiry, and at once when the
// receiver sees this session's reply or the station stop — the receiver
// re-arms it only while the session is parked in a poll, so a reply wakes
// one session however many are in flight.
type stationCall struct {
	st    *Station
	drive *stationDrive
	timer *vclock.Timer
	req   action.Request

	// Session state, touched only by Run (steps are serialized on the pump).
	live     bool // arrived: enrolled, first submit sent
	start    time.Duration
	span     int64
	i        int // failover index into st.replicas
	target   simnet.ProcessID
	deadline time.Duration // re-send due

	// Guarded by Station.mu.
	parked     bool // a poll is armed and no wake is pending
	done       bool
	val        action.Value
	prev, next *stationCall // arrival-order list of in-flight sessions
}

// stationDrive is one Drive's join count, guarded by Station.mu.
type stationDrive struct{ completed, finished int }

// StationConfig assembles a station.
type StationConfig struct {
	ID       simnet.ProcessID
	Endpoint *simnet.Endpoint
	Replicas []simnet.ProcessID
	Detector fd.Detector
}

// stationResend is the per-session submit re-send period.
const stationResend = 4 * time.Millisecond

// NewStation builds a station and starts its demultiplexing receiver. The
// endpoint must not be concurrently drained by a Client.
func NewStation(cfg StationConfig) *Station {
	st := &Station{
		id:       cfg.ID,
		ep:       cfg.Endpoint,
		clk:      cfg.Endpoint.Clock(),
		replicas: append([]simnet.ProcessID(nil), cfg.Replicas...),
		det:      cfg.Detector,
		m:        cfg.Endpoint.Metrics(),
		tr:       cfg.Endpoint.Trace(),
		waiting:  make(map[string]*stationCall),
	}
	st.cond = st.clk.NewCond(&st.mu)
	st.clk.Go(st.receive)
	return st
}

// receive drains the endpoint, waking the session each reply answers. It
// exits when the endpoint closes (network shutdown), waking every in-flight
// session in arrival order and then Drive's join.
func (st *Station) receive() {
	for {
		msg, ok := st.ep.Recv()
		if !ok {
			st.mu.Lock()
			st.stopped = true
			for c := st.first; c != nil; c = c.next {
				c.wake()
			}
			st.mu.Unlock()
			st.cond.Broadcast()
			return
		}
		if msg.Type != MsgResult {
			continue
		}
		p, ok := msg.Payload.(ResultPayload)
		if !ok {
			continue
		}
		st.mu.Lock()
		if c := st.waiting[p.ReqID]; c != nil && !c.done {
			c.done = true
			c.val = p.Value
			c.wake()
		}
		st.mu.Unlock()
	}
}

// wake runs a parked session now instead of at its poll; callers hold
// st.mu.
func (c *stationCall) wake() {
	if c.parked {
		c.parked = false
		c.timer.Reset(0)
	}
}

// enroll registers a new in-flight session at the tail of the arrival
// list.
func (st *Station) enroll(c *stationCall) {
	st.mu.Lock()
	st.waiting[c.req.ID] = c
	c.prev = st.last
	if st.last != nil {
		st.last.next = c
	} else {
		st.first = c
	}
	st.last = c
	st.mu.Unlock()
}

// retire removes a finished session from the in-flight structures.
func (st *Station) retire(c *stationCall) {
	st.mu.Lock()
	delete(st.waiting, c.req.ID)
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		st.first = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		st.last = c.prev
	}
	st.mu.Unlock()
}

// Run is one step of the session, on the clock's pump: its arrival, the
// expiry of its poll, or the receiver's wake. It carries the session to its
// next wait — the poll, re-armed — or to its end. After a wait the checks
// run in Figure 5's order: answered, then stopped, then suspicion of the
// contacted replica (fail over) and re-send due (same replica; submit is
// idempotent). The detector is the caller's code: it is asked without
// st.mu.
func (c *stationCall) Run() {
	st := c.st
	if !c.live {
		c.live = true
		c.start = st.clk.Now()
		st.m.Inc(obs.ReqSubmitted)
		c.span = st.tr.Begin(c.start, string(st.id), "request", c.req.ID)
		st.enroll(c)
		c.send()
	} else if c.settle() {
		return
	}
	for {
		suspected := st.det.Suspect(c.target)
		due := st.clk.Now() >= c.deadline
		st.mu.Lock()
		if !c.done && !st.stopped && !suspected && !due {
			// Checked and parked under one hold of st.mu, the lock the
			// receiver sets done under: no reply can be missed, so the poll
			// only bounds the staleness of the two answers above.
			c.parked = true
			c.timer.Reset(clientPoll)
			st.mu.Unlock()
			return
		}
		st.mu.Unlock()
		if c.settle() {
			return
		}
		if suspected {
			c.i++
			st.m.Inc(obs.ReqFailovers)
		}
		c.send()
	}
}

// send submits the request to the session's current replica and restarts
// the re-send deadline.
func (c *stationCall) send() {
	st := c.st
	c.target = st.replicas[c.i%len(st.replicas)]
	st.mu.Lock()
	st.attempts++
	st.mu.Unlock()
	st.ep.Send(c.target, MsgSubmit, SubmitPayload{Req: c.req, Client: st.id})
	c.deadline = st.clk.Now() + stationResend
}

// settle ends the session if it was answered (logging the completion) or
// the station stopped under it, and reports whether it did.
func (c *stationCall) settle() bool {
	st := c.st
	st.mu.Lock()
	c.parked = false
	if c.done {
		now := st.clk.Now()
		st.requests = append(st.requests, c.req)
		st.replies = append(st.replies, c.val)
		st.latencies = append(st.latencies, now-c.start)
		st.mu.Unlock()
		st.m.Observe(now - c.start)
		st.m.Inc(obs.ReqReplied)
		st.tr.End(now, string(st.id), "request", c.span)
		c.finish(true)
		return true
	}
	stopped := st.stopped
	st.mu.Unlock()
	if stopped {
		c.finish(false)
	}
	return stopped
}

// finish retires the session, counts it in its Drive's join and wakes the
// join.
func (c *stationCall) finish(completed bool) {
	st := c.st
	st.retire(c)
	st.mu.Lock()
	c.drive.finished++
	if completed {
		c.drive.completed++
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// Drive schedules one session per (ats[i], reqs[i]) pair on the virtual
// clock — each request must carry a unique ID — and blocks until every
// session finishes (reply received, or the network closed under it). It
// reports how many completed with a reply. Sessions run on the clock's
// pump, each on its own Timer, and
// the join waits on a virtual-time condition variable (the Router.CallAll
// discipline), so the whole drive is deterministic.
func (st *Station) Drive(ats []time.Duration, reqs []action.Request) int {
	d := &stationDrive{}
	calls := make([]stationCall, len(reqs))
	for i := range calls {
		c := &calls[i]
		c.st, c.drive, c.req = st, d, reqs[i]
		c.timer = st.clk.NewTimer(c)
		c.timer.Reset(ats[i])
	}
	st.mu.Lock()
	for d.finished < len(reqs) && !st.stopped {
		st.cond.WaitTimeout(clientPoll)
	}
	n := d.completed
	st.mu.Unlock()
	return n
}

// Attempts reports the total submit attempts.
func (st *Station) Attempts() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.attempts
}

// Log returns the completed requests and replies in completion order.
func (st *Station) Log() ([]action.Request, []action.Value) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]action.Request(nil), st.requests...), append([]action.Value(nil), st.replies...)
}

// Latencies returns the per-session submit→reply virtual durations, in
// completion order.
func (st *Station) Latencies() []time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]time.Duration(nil), st.latencies...)
}
