package scenario

import (
	"time"

	"xability/internal/action"
	"xability/internal/shard"
	"xability/internal/workload"
)

// openLoad draws the scenario's seeded arrival schedule. An unset Accounts
// in the spec inherits the scenario's (already defaulted) account count,
// so the bank the replicas serve always covers the keys the generator
// draws.
func openLoad(sc Scenario, seed int64) load {
	spec := *sc.OpenLoop
	if spec.Accounts <= 0 {
		spec.Accounts = sc.Accounts
	}
	arrivals := workload.GenerateOpenLoop(spec, seed)
	l := load{open: true, accounts: spec.Accounts}
	l.ats = make([]time.Duration, len(arrivals))
	l.reqs = make([]action.Request, len(arrivals))
	for i, a := range arrivals {
		l.ats[i], l.reqs[i] = a.At, a.Req
	}
	return l
}

// driveOpenLoop runs the arrival schedule to completion and returns how
// many sessions completed. Offered load is fixed by the spec, not by
// service latency: the run measures what the protocol does when work keeps
// arriving regardless of how fast it finishes (saturation, queueing,
// batching leverage). A single group drives its station inline on the
// caller's goroutine. Behind the router the schedule is partitioned by
// ring owner and each group's station gets its own driver goroutine, so
// sessions flow straight to their key's group without the router's
// per-request discipline serializing against the arrival pacing. The two
// forms are not interchangeable: spawning a driver for the single group
// would renumber every event of the run.
func (d *deployment) driveOpenLoop(l load) int {
	if d.router == nil {
		return d.members[0].station.Drive(l.ats, l.reqs)
	}
	ats := make([][]time.Duration, len(d.members))
	reqs := make([][]action.Request, len(d.members))
	for i, r := range l.reqs {
		s := d.router.Ring().Owner(shard.InputKey(r))
		ats[s] = append(ats[s], l.ats[i])
		reqs[s] = append(reqs[s], r)
	}
	// Join on the shared clock's condition (the Drive goroutines always
	// hold pending timers, so the untimed wait cannot starve the virtual
	// clock).
	cond := d.clk.NewCond(nil)
	done, completed := 0, 0
	for s := range d.members {
		d.clk.Go(func() {
			n := d.members[s].station.Drive(ats[s], reqs[s])
			done++
			completed += n
			cond.Broadcast()
		})
	}
	for done < len(d.members) {
		cond.Wait()
	}
	return completed
}

// stationsOnOwners is the routing audit of a sharded open-loop run. The
// router's Route log is empty (sessions bypass the router), so the audit
// re-derives ownership from the ring: every completed session must have
// run on its key's owner, and no request ID may complete in two groups.
func (d *deployment) stationsOnOwners() bool {
	exact := true
	seen := make(map[string]bool)
	for s, m := range d.members {
		logged, _ := m.station.Log()
		for _, req := range logged {
			if d.router.Ring().Owner(shard.InputKey(req)) != s || seen[req.ID] {
				exact = false
			}
			seen[req.ID] = true
		}
	}
	return exact
}
