package shard

import (
	"sync"

	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/vclock"
)

// InputKey is the routing key: the request's raw input value (the bank
// workload's account name). The key, not the whole request, is what the
// ring partitions: two requests with the same key always land on the same
// group, which is what lets a group own its slice of the application state
// outright.
func InputKey(req action.Request) string { return string(req.Input) }

// Route records one routing decision for the merged checker's global
// exactly-once-routing audit.
type Route struct {
	// Req is the request as submitted to the owner group's client (still
	// untagged; the group's client assigns the request ID).
	Req action.Request
	// Key and Shard are the routing decision.
	Key   string
	Shard int
	// Reply is the value the owner group returned; Replied is false when
	// the call aborted (network closed mid-run by a watchdog).
	Reply   action.Value
	Replied bool
}

// Router is the deployment's client stub: it maps each request to its
// owning group via InputKey and the ring, submits it on that
// group's client, and records the decision for the routing audit.
//
// Failover on crash or suspicion happens *inside* the owner group: the
// group's client retries across the group's replicas (R1 makes the retry
// idempotent, R2 makes it eventually successful). The router deliberately
// never fails over across groups — a request's owner is a pure function
// of its key, and re-routing to a non-owner would both violate state
// ownership and break the exactly-once-routing invariant the merged
// checker enforces.
type Router struct {
	ring   *Ring
	groups []*core.Cluster
	clk    *vclock.Virtual

	mu sync.Mutex
	// routed holds each shard's routing log in submission order. Logs are
	// per shard so concurrent streams never interleave their appends —
	// the audit stays deterministic under any worker schedule.
	routed [][]Route
}

func newRouter(ring *Ring, groups []*core.Cluster, clk *vclock.Virtual) *Router {
	return &Router{ring: ring, groups: groups, clk: clk, routed: make([][]Route, len(groups))}
}

// Owner returns the shard index owning a request's key.
func (r *Router) Owner(req action.Request) int { return r.ring.Owner(InputKey(req)) }

// Call routes one request to its owning group and submits it until it
// succeeds. It returns the group's reply ("" when the run was closed
// before a reply arrived).
func (r *Router) Call(req action.Request) action.Value {
	return r.callOn(r.Owner(req), req)
}

func (r *Router) callOn(s int, req action.Request) action.Value {
	v := r.groups[s].Client.SubmitUntilSuccess(req)
	r.mu.Lock()
	r.routed[s] = append(r.routed[s], Route{Req: req, Key: InputKey(req), Shard: s, Reply: v, Replied: v != ""})
	r.mu.Unlock()
	return v
}

// CallAll routes a request sequence and drives each group's subsequence
// concurrently — one goroutine per owning shard on the shared virtual
// clock, preserving per-shard submission order. Replies come back in
// input order; ok reports whether every request was answered.
//
// Concurrency is what makes the deployment scale in *virtual* time: each
// group has one client, so a group's stream is sequential, but streams of
// different groups overlap their message delays on the one clock —
// aggregate ops per virtual second grows with the shard count (Table T9).
func (r *Router) CallAll(reqs []action.Request) (replies []action.Value, ok bool) {
	replies = make([]action.Value, len(reqs))
	perShard := make([][]int, len(r.groups))
	for i, req := range reqs {
		s := r.Owner(req)
		perShard[s] = append(perShard[s], i)
	}
	// The streams join on a clock-integrated condition, not a bare
	// WaitGroup: a vclock Cond re-marks the waiting caller runnable at the
	// instant of the final Broadcast, so no zero-runnable window opens
	// between the last stream finishing and the caller resuming. Waiting
	// detached on plain sync leaves exactly such a window, and in it the
	// clock pumps whatever background deadlines are pending (cleaner
	// periods, heartbeats) until the Go runtime happens to reschedule the
	// caller — burning an unbounded, wall-clock-dependent amount of
	// virtual time into the run and destroying SimTime determinism.
	var mu sync.Mutex
	cond := r.clk.NewCond(&mu)
	pending := 0
	r.clk.Enter()
	defer r.clk.Exit()
	for s, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		pending++
		s, idxs := s, idxs
		r.clk.Go(func() {
			for _, i := range idxs {
				replies[i] = r.callOn(s, reqs[i])
			}
			mu.Lock()
			pending--
			mu.Unlock()
			cond.Broadcast()
		})
	}
	mu.Lock()
	for pending > 0 {
		cond.Wait()
	}
	mu.Unlock()
	ok = true
	for _, v := range replies {
		if v == "" {
			ok = false
		}
	}
	return replies, ok
}

// Routes returns shard s's routing log in submission order.
func (r *Router) Routes(s int) []Route {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Route(nil), r.routed[s]...)
}

// Routed counts routing decisions across all shards.
func (r *Router) Routed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rs := range r.routed {
		n += len(rs)
	}
	return n
}
