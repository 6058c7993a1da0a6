package shard

import (
	"fmt"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/verify"
)

// Report is the merged verdict of a sharded run: the per-shard R2–R4
// reports plus the global routing audit. X-ability composes (§4's
// locality), so the deployment's verdict is exactly "every group verified
// on its own history" ∧ "every request was routed to its ring owner,
// exactly once, globally".
type Report struct {
	// Shards holds each group's R2–R4 report against its own history and
	// client log.
	Shards []verify.Report
	// RoutingExact holds when the routing audit passed: each route went to
	// the key's ring owner, each owner's submission log matches its routing
	// log exactly (same requests, same order, nothing extra), and no
	// request appears in more than one group's log.
	RoutingExact bool
	// Details carries diagnostics for failed clauses.
	Details []string
}

// OK reports whether every shard verified (per verify.Report.OK) and the
// routing audit passed.
func (r Report) OK() bool {
	for _, s := range r.Shards {
		if !s.OK() {
			return false
		}
	}
	return r.RoutingExact
}

// XAble reports the checker's x-ability verdict for the whole deployment:
// every shard's history reduces (strictly or per-request) and routing was
// exactly once.
func (r Report) XAble() bool {
	for _, s := range r.Shards {
		if !s.R3Strict && !s.R3Projected {
			return false
		}
	}
	return r.RoutingExact
}

// Verify checks the deployment's run so far: each group's history against
// its own submitted requests (the composition argument's per-service
// obligations), then the router's global exactly-once-routing invariant.
func (c *Cluster) Verify(reg *action.Registry) Report {
	return c.VerifyHistories(reg, c.Histories())
}

// VerifyHistories is Verify against pre-fetched per-shard histories
// (from Histories), letting callers that also need the merged trace
// snapshot each group once.
func (c *Cluster) VerifyHistories(reg *action.Registry, hs []event.History) Report {
	var rep Report
	for s, g := range c.groups {
		reqs, replies := g.Client.Log()
		rep.Shards = append(rep.Shards, verify.Check(verify.Run{
			Registry:       reg,
			Requests:       reqs,
			Replies:        replies,
			History:        hs[s],
			SubmitAttempts: g.Client.Attempts(),
		}))
	}
	rep.RoutingExact, rep.Details = c.AuditRouting()
	return rep
}

// AuditRouting is the global half of the merged verdict on its own: each
// route went to the key's ring owner, each owner's submission log matches
// its routing log exactly, and no request surfaced in two groups. It reads
// the router's and the group clients' logs only, so callers that verify
// the per-shard histories themselves (the scenario driver does, uniformly
// with its other deployments) can ask for just this.
func (c *Cluster) AuditRouting() (exact bool, details []string) {
	exact = true
	fail := func(format string, args ...any) {
		exact = false
		details = append(details, fmt.Sprintf(format, args...))
	}
	type sig struct {
		a  action.Name
		iv action.Value
		n  int // per-pair occurrence index, so repeats stay distinct
	}
	seen := make(map[sig]int) // signature → owning shard (first sighting)
	for s := range c.groups {
		routes := c.Router.Routes(s)
		logged, _ := c.groups[s].Client.Log()

		// Every route must target the key's ring owner.
		counts := make(map[sig]int)
		var answered []Route
		for _, rt := range routes {
			if want := c.ring.Owner(rt.Key); want != rt.Shard || rt.Shard != s {
				fail("routing: %v keyed %q went to shard %d, ring owner is %d", rt.Req, rt.Key, rt.Shard, want)
			}
			if rt.Replied {
				answered = append(answered, rt)
			}
		}
		// The group's submission log must be exactly the answered routes,
		// in order: nothing dropped, nothing injected behind the router's
		// back, nothing re-routed mid-retry.
		if len(logged) != len(answered) {
			fail("routing: shard %d logged %d submissions but the router routed %d answered requests there", s, len(logged), len(answered))
		}
		for i := 0; i < len(logged) && i < len(answered); i++ {
			if logged[i].Action != answered[i].Req.Action || logged[i].Input != answered[i].Req.Input {
				fail("routing: shard %d submission %d is %v, router routed %v", s, i, logged[i], answered[i].Req)
			}
		}
		// No request signature may surface in two groups' logs.
		for _, req := range logged {
			k := sig{a: req.Action, iv: req.Input, n: counts[sig{a: req.Action, iv: req.Input}]}
			counts[sig{a: req.Action, iv: req.Input}]++
			if prev, dup := seen[k]; dup {
				fail("routing: request (%s, %s) #%d surfaced in shards %d and %d", req.Action, action.Display(req.Input), k.n, prev, s)
			} else {
				seen[k] = s
			}
		}
	}
	return exact, details
}
