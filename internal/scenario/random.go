package scenario

import (
	"fmt"
	"time"

	"xability/internal/simnet"
	"xability/internal/xrand"
)

// RandomOptions tunes the seeded fault-schedule generator (Plan.Random).
type RandomOptions struct {
	// Ops is the number of fault operations to draw (default 4). A pulse,
	// storm, or partition counts as one op (its repair rides along).
	Ops int
	// Horizon bounds the schedule: every op fires, and every disruptive
	// op is repaired, strictly before it (default 6ms). Runs should settle
	// past it; settleFor does so automatically via Plan.Horizon.
	Horizon time.Duration
	// Replicas is the replication degree the plan is drawn for (default
	// 3). The generator never crashes more than a minority of a group, so
	// the protocol's quorum assumption survives any drawn schedule.
	Replicas int
	// Shards, when above 1, draws group-scoped ops addressed to random
	// groups of a sharded deployment (the plan becomes shard-bound).
	Shards int
	// MaxStormFactor bounds delay-storm multipliers (default 16).
	MaxStormFactor float64
	// Restarts pairs every drawn crash with a later restart inside the
	// horizon — the crash→restart schedule class. Meaningful only when the
	// scenario deploys stable storage (Scenario.Durable): on an in-memory
	// deployment RestartAt is a no-op and the crash stays permanent. A
	// restarted replica still counts against the crash budget, so the
	// minority guard stays conservative even before its restart fires.
	Restarts bool
	// MajorityCrashes lifts the minority guard to Replicas-1: a drawn
	// schedule may take down a majority of a group, as long as one
	// replica survives to bridge the outage. The liveness guard shifts
	// from "never crash a majority" to "every crash is paired with a
	// restart strictly inside the horizon" — so MajorityCrashes implies
	// Restarts, and it only makes sense on a durable deployment (without
	// stable storage a majority crash is a permanent quorum loss and no
	// schedule could be required to stay x-able).
	MajorityCrashes bool
	// TotalLoss lifts the guard entirely: every replica of a group may be
	// crashed, simultaneously — a full power cycle. Decisions must come
	// back from the logs alone. Implies MajorityCrashes and Restarts.
	TotalLoss bool
}

func (o RandomOptions) withDefaults() RandomOptions {
	if o.Ops <= 0 {
		o.Ops = 4
	}
	if o.Horizon <= 0 {
		o.Horizon = 6 * time.Millisecond
	}
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.MaxStormFactor < 2 {
		o.MaxStormFactor = 16
	}
	if o.TotalLoss {
		o.MajorityCrashes = true
	}
	if o.MajorityCrashes {
		o.Restarts = true
	}
	return o
}

// crashBudget is the per-group cap on distinct crashed replicas: a strict
// minority by default, all-but-one under MajorityCrashes (the paired
// restarts are the liveness guard), everyone under TotalLoss.
func (o RandomOptions) crashBudget() int {
	switch {
	case o.TotalLoss:
		return o.Replicas
	case o.MajorityCrashes:
		return o.Replicas - 1
	default:
		return (o.Replicas - 1) / 2
	}
}

// Random appends a seeded random fault schedule: Ops operations drawn
// from the full adversarial vocabulary — crashes, false-suspicion pulses,
// owner-isolating partitions, delay storms — at random virtual times
// within the horizon, addressed to random groups when Shards is set.
// Equal (seed, options) pairs generate identical plans, so a scenario
// whose faults derive from the run seed stays a replayable value; see
// Scenario.RandomFaults for exactly that wiring.
//
// Drawn schedules respect the protocol's liveness assumptions, so
// x-ability is still *required* of every generated schedule (a failing
// seed is a bug, not an over-harsh plan): at most a minority of each
// group crashes, every partition heals, every storm calms, and every
// false suspicion is recovered — all strictly inside the horizon. The
// assumptions must also survive op *composition*: ops that own a
// replica's detector state (crashes, pulses, cuts) claim disjoint
// per-replica windows, so one op's recovery can never un-suspect a
// replica another op still severs.
func (p *Plan) Random(seed int64, opt RandomOptions) *Plan {
	opt = opt.withDefaults()
	rng := xrand.New(seed)
	crashed := make(map[int]map[int]bool) // group → crashed replicas
	maxCrash := opt.crashBudget()

	// claimed tracks, per (group, replica), the windows in which one drawn
	// op owns that replica's detector state. Each op keeps the liveness
	// assumptions within itself (a cut carries suspicion until its heal, a
	// pulse recovers), but two independently drawn ops can compose into a
	// model violation: a pulse's recovery un-suspects a replica that a
	// later-drawn cut still severs, the client trusts an unreachable
	// replica, and the await wedges forever (found by the
	// shard-restart-random sweep, seed 131 — before windows were claimed).
	// An op whose drawn window would overlap an existing claim for the
	// same replica is skipped; its op slot is spent, so Ops counts
	// attempted draws.
	type span struct{ from, to time.Duration }
	claimed := make(map[[2]int][]span)
	free := func(g, r int, from, to time.Duration) bool {
		for _, w := range claimed[[2]int{g, r}] {
			if from <= w.to && w.from <= to {
				return false
			}
		}
		return true
	}
	claim := func(g, r int, from, to time.Duration) {
		claimed[[2]int{g, r}] = append(claimed[[2]int{g, r}], span{from, to})
	}

	// at draws a firing instant in [5%, frac·95%] of the horizon.
	at := func(frac float64) time.Duration {
		span := float64(opt.Horizon) * 0.95 * frac
		lo := float64(opt.Horizon) * 0.05
		return time.Duration(lo + rng.Float64()*(span-lo))
	}

	for i := 0; i < opt.Ops; i++ {
		g := rng.Intn(opt.Shards)
		if crashed[g] == nil {
			crashed[g] = make(map[int]bool)
		}
		sub := NewPlan()
		switch kind := rng.Intn(4); {
		case kind == 0 && len(crashed[g]) < maxCrash:
			// Crash a not-yet-crashed replica of group g. The claim spans
			// crash→restart (crash→horizon when permanent): a restart
			// auto-trusts the replica, which must not land inside another
			// op's cut.
			r := rng.Intn(opt.Replicas)
			for crashed[g][r] {
				r = (r + 1) % opt.Replicas
			}
			ct := at(0.8)
			end := opt.Horizon
			var rt time.Duration
			if opt.Restarts {
				// Revive strictly inside the horizon: at least a quarter of
				// the remaining window after the crash, at most three
				// quarters, so the replica is verifiably down for a while
				// and verifiably back before settle. The replica stays in
				// the crash budget (see Restarts), so the guard holds.
				gap := opt.Horizon - ct
				rt = ct + gap/4 + time.Duration(rng.Int63n(int64(gap/2)+1))
				end = rt
			}
			if !free(g, r, ct, end) {
				continue
			}
			claim(g, r, ct, end)
			crashed[g][r] = true
			sub.CrashAt(ct, r)
			if opt.Restarts {
				sub.RestartAt(rt, r)
			}
		case kind == 1:
			// False-suspicion pulse: replicas (and sometimes the client)
			// wrongly suspect a peer for a window, then recover.
			ri := rng.Intn(opt.Replicas)
			start := at(0.6)
			width := opt.Horizon/20 + time.Duration(rng.Int63n(int64(opt.Horizon)/4))
			if !free(g, ri, start, start+width) {
				continue
			}
			claim(g, ri, start, start+width)
			r := simnet.ProcessID(fmt.Sprintf("replica-%d", ri))
			sub.SuspectAt(start, r)
			if rng.Intn(2) == 0 {
				sub.ClientSuspectAt(start, r)
			}
			sub.UnsuspectAt(start+width, r)
		case kind == 2:
			// Delay storm window.
			start := at(0.6)
			width := opt.Horizon/20 + time.Duration(rng.Int63n(int64(opt.Horizon)/4))
			factor := 2 + rng.Float64()*(opt.MaxStormFactor-2)
			sub.DelayStormAt(start, width, factor)
		default:
			// Isolate one replica behind a cut for a window, then heal.
			// The cut side is a single replica — always a minority — so
			// the majority side (which keeps the client) can move on. The
			// cut comes with matching suspicion for its duration: scripted
			// detectors play ◇P here, and a ◇P detector *would* suspect an
			// unreachable peer (without it, a reply black-holed by the cut
			// strands the client forever — the schedule would violate the
			// model's eventual-accuracy assumption, not test the
			// protocol). Recovery lands strictly after the heal so the
			// client never re-awaits a still-severed replica.
			r := rng.Intn(opt.Replicas)
			start := at(0.6)
			width := opt.Horizon/20 + time.Duration(rng.Int63n(int64(opt.Horizon)/4))
			// The claim runs through the post-heal recovery: the replica's
			// detector state is this op's until the final unsuspect.
			if !free(g, r, start, start+width+opt.Horizon/20) {
				continue
			}
			claim(g, r, start, start+width+opt.Horizon/20)
			rid := simnet.ProcessID(fmt.Sprintf("replica-%d", r))
			var rest []simnet.ProcessID
			for q := 0; q < opt.Replicas; q++ {
				if q != r {
					rest = append(rest, simnet.ProcessID(fmt.Sprintf("replica-%d", q)))
				}
			}
			rest = append(rest, "client")
			sub.PartitionAt(start, []simnet.ProcessID{rid}, rest)
			sub.SuspectAt(start, rid)
			sub.ClientSuspectAt(start, rid)
			sub.HealAt(start + width)
			sub.UnsuspectAt(start+width+opt.Horizon/20, rid)
		}
		if opt.Shards > 1 {
			p.OnShard(g, sub)
		} else {
			// Append the ops verbatim (not through add) so crash/restart
			// identity survives into the merged plan for the shrinker.
			p.ops = append(p.ops, sub.Ops()...)
			// Drawn partitions name explicit process sides, so the plan
			// inherits the sub-plan's topology binding (OnShard already
			// propagates it on the sharded branch).
			p.topologyBound = p.topologyBound || sub.topologyBound
		}
	}
	return p
}
