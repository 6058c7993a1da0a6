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
// of client.go drives exactly one session at a time. A background pump
// drains the endpoint and demultiplexes MsgResult by request ID to the
// per-request waiters, so thousands of in-flight submissions share one
// mailbox (and one delay stream — the Station reuses the cluster's
// existing "client" endpoint, keeping the network's seeded delay plan
// identical whether a run is open- or closed-loop).
//
// Each session follows Figure 5's submit discipline independently: send to
// a replica, await a result or a suspicion, fail over on suspicion. A
// paced re-send covers the open-loop-specific hole that a dropped submit
// of a session nobody is watching would otherwise never be retried.
type Station struct {
	id       simnet.ProcessID
	ep       *simnet.Endpoint
	clk      *vclock.Virtual
	replicas []simnet.ProcessID
	det      fd.Detector
	m        *obs.Metrics // nil-safe run metrics
	tr       *obs.Trace   // nil-safe span recorder

	mu      sync.Mutex
	cond    *vclock.Cond            // Drive's join; sessions wait on their own call's cond
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

// stationCall is one in-flight session. Its cond (on Station.mu) is
// broadcast by the pump when this session's reply arrives or the station
// stops, so a reply wakes one session however many are in flight.
type stationCall struct {
	cond       *vclock.Cond
	done       bool
	val        action.Value
	prev, next *stationCall // arrival-order list of in-flight sessions
}

// StationConfig assembles a station.
type StationConfig struct {
	ID       simnet.ProcessID
	Endpoint *simnet.Endpoint
	Replicas []simnet.ProcessID
	Detector fd.Detector
}

// stationResend is the per-session submit re-send period.
const stationResend = 4 * time.Millisecond

// NewStation builds a station and starts its demultiplexing pump. The
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
	st.clk.Go(st.pump)
	return st
}

// pump drains the endpoint, resolving waiters. It exits when the endpoint
// closes (network shutdown), waking every in-flight session in arrival
// order and then Drive's join.
func (st *Station) pump() {
	for {
		msg, ok := st.ep.Recv()
		if !ok {
			st.mu.Lock()
			st.stopped = true
			for c := st.first; c != nil; c = c.next {
				c.cond.Broadcast()
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
			c.cond.Broadcast()
		}
		st.mu.Unlock()
	}
}

// enroll registers a new in-flight session at the tail of the arrival
// list.
func (st *Station) enroll(id string) *stationCall {
	c := &stationCall{cond: st.clk.NewCond(&st.mu)}
	st.mu.Lock()
	st.waiting[id] = c
	c.prev = st.last
	if st.last != nil {
		st.last.next = c
	} else {
		st.first = c
	}
	st.last = c
	st.mu.Unlock()
	return c
}

// retire removes a finished session from the in-flight structures.
func (st *Station) retire(id string, c *stationCall) {
	st.mu.Lock()
	delete(st.waiting, id)
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

// Submit runs one open-loop session to completion: the request must
// already carry a unique ID. It returns the reply, or ok=false if the
// network closed first. Safe for arbitrary concurrency.
func (st *Station) Submit(req action.Request) (action.Value, bool) {
	start := st.clk.Now()
	st.m.Inc(obs.ReqSubmitted)
	span := st.tr.Begin(start, string(st.id), "request", req.ID)
	c := st.enroll(req.ID)
	defer st.retire(req.ID, c)

	i := 0
	for {
		target := st.replicas[i%len(st.replicas)]
		st.mu.Lock()
		st.attempts++
		st.mu.Unlock()
		st.ep.Send(target, MsgSubmit, SubmitPayload{Req: req, Client: st.id})
		deadline := st.clk.Now() + stationResend
		for {
			// The detector is the caller's code: ask it without st.mu.
			suspected := st.det.Suspect(target)
			due := st.clk.Now() >= deadline
			st.mu.Lock()
			if !c.done && !st.stopped && !suspected && !due {
				// Checked and parked under one hold of st.mu, the lock
				// the pump sets done under: no wake-up can be missed, so
				// the poll only bounds the staleness of the two answers
				// above.
				c.cond.WaitTimeout(clientPoll)
			}
			if c.done {
				val := c.val
				now := st.clk.Now()
				st.requests = append(st.requests, req)
				st.replies = append(st.replies, val)
				st.latencies = append(st.latencies, now-start)
				st.mu.Unlock()
				st.m.Observe(now - start)
				st.m.Inc(obs.ReqReplied)
				st.tr.End(now, string(st.id), "request", span)
				return val, true
			}
			stopped := st.stopped
			st.mu.Unlock()
			if stopped {
				return "", false
			}
			if suspected {
				i++
				st.m.Inc(obs.ReqFailovers)
				break // fail over (Figure 5's advance)
			}
			if due {
				break // re-send to the same replica (submit is idempotent)
			}
		}
	}
}

// Drive schedules one session per (ats[i], reqs[i]) pair on the virtual
// clock and blocks until every session finishes (reply received, or the
// network closed under it). It reports how many completed with a reply.
// The caller must be attached to the clock; the session goroutines are
// attached via GoAfter and the join waits on a virtual-time condition
// variable (the Router.CallAll discipline), so the whole drive is
// deterministic.
func (st *Station) Drive(ats []time.Duration, reqs []action.Request) int {
	completed, finished := 0, 0
	for i := range reqs {
		req := reqs[i]
		st.clk.GoAfter(ats[i], func() {
			_, ok := st.Submit(req)
			st.mu.Lock()
			finished++
			if ok {
				completed++
			}
			st.mu.Unlock()
			st.cond.Broadcast()
		})
	}
	st.mu.Lock()
	for finished < len(reqs) && !st.stopped {
		st.cond.WaitTimeout(clientPoll)
	}
	n := completed
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
