package core

import (
	"time"

	"xability/internal/action"
	"xability/internal/fd"
	"xability/internal/obs"
	"xability/internal/simnet"
	"xability/internal/vclock"
)

// Station is the open-loop client multiplexer: it drives many concurrent
// single-request sessions over one endpoint, where the closed-loop Client
// of client.go drives exactly one session at a time. A receiver on the
// clock's pump drains the endpoint and demultiplexes MsgResult by request
// ID to the in-flight sessions, so thousands of them share one mailbox
// (and one delay stream — the Station reuses the cluster's existing
// "client" endpoint, keeping the network's seeded delay plan identical
// whether a run is open- or closed-loop).
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

	recv stationRecv // the demultiplexing receiver, on the clock's pump

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

	// Shared with the receiver and the stop path.
	parked     bool // a poll is armed and no wake is pending
	done       bool
	val        action.Value
	prev, next *stationCall // arrival-order list of in-flight sessions
}

// stationDrive is one Drive's join count.
type stationDrive struct{ sessions, completed, finished int }

// StationConfig assembles a station.
type StationConfig struct {
	ID       simnet.ProcessID
	Endpoint *simnet.Endpoint
	Replicas []simnet.ProcessID
	Detector fd.Detector
}

// stationResend is the per-session submit re-send period.
const stationResend = 4 * time.Millisecond

// NewStation builds a station and arms its demultiplexing receiver, a
// Runner on the clock's pump whose first run is an event at the current
// instant. The endpoint must not be concurrently drained by a Client.
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
	st.cond = st.clk.NewCond(nil)
	st.recv.st = st
	st.clk.AfterRunner(0, &st.recv)
	return st
}

// stationRecv is the station's receiver, a vclock.Runner: each run drains
// the endpoint, waking the session each reply answers, and re-arms on it
// (simnet.Endpoint.WaitRunner). When the drain finds the endpoint closed
// (network shutdown) it stops the station instead: it wakes every
// in-flight session in arrival order and then Drive's join.
type stationRecv struct{ st *Station }

// Run implements vclock.Runner.
func (r *stationRecv) Run() {
	st := r.st
	for {
		msg, ok := st.ep.TryRecv()
		if !ok {
			break
		}
		if msg.Type != MsgResult {
			continue
		}
		p, ok := msg.Payload.(ResultPayload)
		if !ok {
			continue
		}
		if c := st.waiting[p.ReqID]; c != nil && !c.done {
			c.done = true
			c.val = p.Value
			c.wake()
		}
	}
	if !st.ep.Closed() {
		st.ep.WaitRunner(r)
		return
	}
	st.stopped = true
	for c := st.first; c != nil; c = c.next {
		c.wake()
	}
	st.cond.Broadcast()
}

// wake runs a parked session now instead of at its poll.
func (c *stationCall) wake() {
	if c.parked {
		c.parked = false
		c.timer.Reset(0)
	}
}

// enroll registers a new in-flight session at the tail of the arrival
// list.
func (st *Station) enroll(c *stationCall) {
	st.waiting[c.req.ID] = c
	c.prev = st.last
	if st.last != nil {
		st.last.next = c
	} else {
		st.first = c
	}
	st.last = c
}

// retire removes a finished session from the in-flight structures.
func (st *Station) retire(c *stationCall) {
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
}

// Run is one step of the session, on the clock's pump: its arrival, the
// expiry of its poll, or the receiver's wake. It carries the session to its
// next wait — the poll, re-armed — or to its end. After a wait the checks
// run in Figure 5's order: answered, then stopped, then suspicion of the
// contacted replica (fail over) and re-send due (same replica; submit is
// idempotent).
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
		if !c.done && !st.stopped && !suspected && !due {
			// Checked and parked in one step, so no reply can be missed:
			// the poll only bounds the staleness of the two answers above.
			c.parked = true
			c.timer.Reset(clientPoll)
			return
		}
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
	st.attempts++
	st.ep.Send(c.target, MsgSubmit, SubmitPayload{Req: c.req, Client: st.id})
	c.deadline = st.clk.Now() + stationResend
}

// settle ends the session if it was answered (logging the completion) or
// the station stopped under it, and reports whether it did.
func (c *stationCall) settle() bool {
	st := c.st
	c.parked = false
	if c.done {
		now := st.clk.Now()
		st.requests = append(st.requests, c.req)
		st.replies = append(st.replies, c.val)
		st.latencies = append(st.latencies, now-c.start)
		st.m.Observe(now - c.start)
		st.m.Inc(obs.ReqReplied)
		st.tr.End(now, string(st.id), "request", c.span)
		c.finish(true)
		return true
	}
	if st.stopped {
		c.finish(false)
	}
	return st.stopped
}

// finish retires the session and counts it in its Drive's join, which it
// wakes once the Drive's every session has finished: a wake per session
// would find the join still short and send it straight back to sleep.
func (c *stationCall) finish(completed bool) {
	st := c.st
	st.retire(c)
	d := c.drive
	d.finished++
	if completed {
		d.completed++
	}
	if d.finished == d.sessions {
		st.cond.Broadcast()
	}
}

// Drive schedules one session per (ats[i], reqs[i]) pair on the virtual
// clock — each request must carry a unique ID — and blocks until every
// session finishes (reply received, or the network closed under it). It
// reports how many completed with a reply. Sessions run on the clock's
// pump, each on its own Timer, and
// the join waits on a virtual-time condition variable (the Router.CallAll
// discipline), so the whole drive is deterministic.
func (st *Station) Drive(ats []time.Duration, reqs []action.Request) int {
	d := &stationDrive{sessions: len(reqs)}
	calls := make([]stationCall, len(reqs))
	for i := range calls {
		c := &calls[i]
		c.st, c.drive, c.req = st, d, reqs[i]
		c.timer = st.clk.NewTimer(c)
		c.timer.Reset(ats[i])
	}
	for d.finished < len(reqs) && !st.stopped {
		st.cond.WaitTimeout(clientPoll)
	}
	return d.completed
}

// Attempts reports the total submit attempts.
func (st *Station) Attempts() int { return st.attempts }

// Log returns the completed requests and replies in completion order.
func (st *Station) Log() ([]action.Request, []action.Value) {
	return append([]action.Request(nil), st.requests...), append([]action.Value(nil), st.replies...)
}

// Latencies returns the per-session submit→reply virtual durations, in
// completion order.
func (st *Station) Latencies() []time.Duration {
	return append([]time.Duration(nil), st.latencies...)
}
