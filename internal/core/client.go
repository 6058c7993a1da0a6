package core

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"xability/internal/action"
	"xability/internal/fd"
	"xability/internal/obs"
	"xability/internal/simnet"
	"xability/internal/vclock"
)

// ErrSubmitFailed is the error value a single submit attempt returns when
// the contacted replica is suspected before a result arrives (Figure 5's
// "return failure"). Submit is idempotent, so the caller simply retries —
// SubmitUntilSuccess does exactly that.
var ErrSubmitFailed = errors.New("core: submit failed (replica suspected)")

// ErrClientClosed is returned when the client's endpoint is closed (the
// network shut down or the client process crashed): no reply can ever
// arrive, so retrying is meaningless.
var ErrClientClosed = errors.New("core: client endpoint closed")

// clientPoll is the await-loop polling period of a client or a station
// session: it bounds how stale the suspicion check may get, and paces the
// retry through suspected replicas.
const clientPoll = 200 * time.Microsecond

// Client is the client-side stub of Figure 5. The paper's model is a
// single client issuing one request at a time (§4), but concurrent Submits
// are safe: a composed service (examples/threetier) shares one back-end
// stub across every middle-tier replica, and active-replication drift
// there means two handlers submit through it at once. Replies drained by
// one Submit on behalf of another are stashed by request ID, not dropped.
type Client struct {
	id       simnet.ProcessID
	ep       *simnet.Endpoint
	clk      *vclock.Virtual
	replicas []simnet.ProcessID
	det      fd.Detector
	m        *obs.Metrics // nil-safe run metrics
	tr       *obs.Trace   // nil-safe span recorder

	mu       sync.Mutex
	i        int // next replica to contact (Figure 5's i)
	seq      int // request ID generator
	attempts int

	// awaiting tracks the request IDs with a Submit in flight; stash holds
	// replies one Submit drained while another was awaiting them. Without
	// the stash, whichever Submit drains the shared mailbox first discards
	// the other's reply and that Submit hangs until a (possibly never
	// coming) suspicion.
	awaiting map[string]bool
	stash    map[string]action.Value

	// run log for the verifier
	requests []action.Request
	replies  []action.Value
}

// ClientConfig assembles a client stub.
type ClientConfig struct {
	ID       simnet.ProcessID
	Endpoint *simnet.Endpoint
	Replicas []simnet.ProcessID
	Detector fd.Detector
}

// NewClient builds a client stub.
func NewClient(cfg ClientConfig) *Client {
	return &Client{
		id:       cfg.ID,
		ep:       cfg.Endpoint,
		clk:      cfg.Endpoint.Clock(),
		replicas: append([]simnet.ProcessID(nil), cfg.Replicas...),
		det:      cfg.Detector,
		m:        cfg.Endpoint.Metrics(),
		tr:       cfg.Endpoint.Trace(),
		awaiting: make(map[string]bool),
		stash:    make(map[string]action.Value),
	}
}

// nextID assigns a fresh request ID. Request identity is what makes a
// retried submit join the same consensus instances instead of becoming a
// new request.
func (c *Client) nextID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return string(c.id) + "-" + strconv.Itoa(c.seq)
}

// Submit is Figure 5's submit: send the request to one replica, await a
// result or a suspicion, and on suspicion advance to the next replica and
// report failure. The same tagged request must be passed to a retry (use
// Tag once, or call SubmitUntilSuccess).
func (c *Client) Submit(req action.Request) (action.Value, error) {
	if req.ID == "" {
		return "", errors.New("core: request must be tagged with an ID (use Tag)")
	}
	c.mu.Lock()
	target := c.replicas[c.i]
	c.attempts++
	c.awaiting[req.ID] = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.awaiting, req.ID)
		delete(c.stash, req.ID)
		c.mu.Unlock()
	}()

	c.m.Inc(obs.ReqSubmitted)
	c.ep.Send(target, MsgSubmit, SubmitPayload{Req: req, Client: c.id})
	for {
		// A concurrent Submit may have drained this request's reply on our
		// behalf (the mailbox is shared); check the stash before the
		// mailbox so that reply is never lost.
		c.mu.Lock()
		v, stashed := c.stash[req.ID]
		c.mu.Unlock()
		if stashed {
			return v, nil
		}
		// Drain the mailbox: a result for this request from any replica —
		// including a late reply to an earlier attempt — satisfies the
		// await (the paper's client awaits any [Result] message).
		for {
			msg, ok := c.ep.TryRecv()
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
			if p.ReqID != req.ID {
				// Another in-flight Submit's reply: stash it for that
				// Submit's next await iteration. Replies to requests no
				// Submit is awaiting are stale duplicates and drop.
				c.mu.Lock()
				if c.awaiting[p.ReqID] {
					if _, dup := c.stash[p.ReqID]; !dup {
						c.stash[p.ReqID] = p.Value
					}
				}
				c.mu.Unlock()
				continue
			}
			return p.Value, nil
		}
		if c.ep.Closed() {
			// The mailbox will never fill again; without this check the
			// await loop would spin (and pin the virtual clock).
			return "", ErrClientClosed
		}
		if c.det.Suspect(target) {
			c.mu.Lock()
			c.i = (c.i + 1) % len(c.replicas)
			c.mu.Unlock()
			c.m.Inc(obs.ReqFailovers)
			return "", ErrSubmitFailed
		}
		// Event-driven await: a delivery wakes the wait immediately; the
		// poll period only bounds how stale the suspicion check may get.
		c.ep.Wait(clientPoll)
	}
}

// Tag assigns a fresh request ID, fixing the request's identity across
// submit retries.
func (c *Client) Tag(req action.Request) action.Request {
	return req.WithID(c.nextID())
}

// SubmitUntilSuccess retries Submit until it succeeds (the client behavior
// R1 and R2 license: submit is idempotent and cannot fail forever) and logs
// the request and reply for verification.
func (c *Client) SubmitUntilSuccess(req action.Request) action.Value {
	req = c.Tag(req)
	start := c.clk.Now()
	span := c.tr.Begin(start, string(c.id), "request", req.ID)
	for {
		v, err := c.Submit(req)
		if err == nil {
			c.mu.Lock()
			c.requests = append(c.requests, req)
			c.replies = append(c.replies, v)
			c.mu.Unlock()
			now := c.clk.Now()
			c.m.Observe(now - start)
			c.m.Inc(obs.ReqReplied)
			c.tr.End(now, string(c.id), "request", span)
			return v
		}
		if errors.Is(err, ErrClientClosed) {
			// R2 presumes a live network; once it is gone the retry
			// obligation lapses. Zero value signals the aborted call.
			return ""
		}
		// Pace the retry on the clock: a client that hot-loops through
		// suspected replicas would otherwise never yield, and on the
		// virtual clock that would stall the very deliveries (a late
		// reply, a heartbeat) that let it make progress.
		c.clk.Sleep(clientPoll)
	}
}

// Attempts reports how many submit attempts the client has made.
func (c *Client) Attempts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts
}

// Log returns the successfully submitted requests and their replies, in
// order — the inputs to requirement R3/R4 verification.
func (c *Client) Log() ([]action.Request, []action.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]action.Request(nil), c.requests...), append([]action.Value(nil), c.replies...)
}
