// Package scenario is the declarative adversarial-workload layer: fault
// plans (timed crash/partition/suspicion/delay-storm operations scheduled
// on the virtual clock), a named-scenario registry describing complete
// protocol-under-attack experiments, and a parallel seed-sweep runner that
// reports verdict distributions instead of single runs.
//
// The paper's central claim is that the x-ability protocol survives
// adversarial schedules — crashes, drifting primary/active modes,
// partitions, delay storms — that break primary-backup and active
// replication. This package makes those schedules first-class values: a
// Scenario says *what* to attack and how, Execute carries one seed through
// it, and Sweep replays it across thousands of seeds (runs are CPU-bound
// on the virtual clock) so a claim becomes a rate over a seed population
// rather than an anecdote.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"xability/internal/simnet"
	"xability/internal/vclock"
)

// Target is one cluster's fault surface: what core.Cluster (a replica group
// of the x-ability protocol) and baseline.Cluster (primary-backup, active)
// share. A plan drives a deployment — a clock and the list of its clusters:
// a sharded deployment lists every replica group in shard order, anything
// else is the 1-list. Plans address the list two ways:
//
//   - Unqualified ops (CrashAt, PartitionAt, DelayStormAt, …) range over
//     it — on several groups a correlated fault striking the whole fleet
//     at one virtual instant.
//   - OnShard re-addresses a sub-plan's ops to one index of it; an index
//     the deployment does not have is a plan misconfiguration and panics.
//
// A plan using only unqualified ops therefore runs unchanged against one
// cluster of any protocol and against any shard count.
type Target interface {
	// Network exposes the link fault plane.
	Network() *simnet.Network
	// CrashServer crashes replica i (crash-stop; permanent unless the
	// target also implements Restarter and the plan restarts it).
	CrashServer(i int)
	// SuspectEverywhere injects or clears a suspicion of target at every
	// replica's scripted detector.
	SuspectEverywhere(target simnet.ProcessID, v bool)
	// ClientSuspect injects or clears a suspicion at the client's detector.
	ClientSuspect(target simnet.ProcessID, v bool)
}

// Restarter is the optional crash-recovery surface of a target: reviving a
// crashed replica from stable storage (core.Cluster implements it; the
// baselines, which have no durable state, do not). RestartServer reports
// whether a restart actually happened — false when replica i never
// crashed (RestartAt on a live replica is a no-op, mirroring the
// idempotence of Crash) or when the deployment has no stable storage to
// recover from.
type Restarter interface {
	RestartServer(i int) bool
}

// each applies f to every cluster of a deployment.
func each(groups []Target, f func(Target)) {
	for _, g := range groups {
		f(g)
	}
}

// restart revives replica i of g where g has a restart surface.
func restart(g Target, i int) {
	if r, ok := g.(Restarter); ok {
		r.RestartServer(i)
	}
}

// Op is one timed fault operation of a plan.
type Op struct {
	// At is the operation's firing time, measured on the virtual clock
	// from the moment the plan is applied.
	At time.Duration
	// Name describes the operation for humans ("crash replica 0").
	Name string
	// Do performs the operation on the deployment's clusters. It must not
	// block: each op runs as a single discrete event of the schedule.
	Do func(groups []Target)
	// Kind, Replica, and Shard are the op's structural identity, set by
	// the builders for crash and restart ops (Kind is OpCrash or
	// OpRestart; zero for everything else). The shrinker reads them to
	// treat a crash and its paired restart as one edit unit: dropping a
	// crash but keeping its restart (or vice versa) would change the
	// schedule's liveness class, not just shrink it.
	Kind OpKind
	// Replica is the replica index a crash/restart addresses.
	Replica int
	// Shard is the group a crash/restart addresses, or AllShards for
	// unqualified ops that fan out to every group.
	Shard int
}

// OpKind classifies the ops the shrinker must edit structurally.
type OpKind uint8

const (
	// OpOther is every op without pairing semantics.
	OpOther OpKind = iota
	// OpCrash marks CrashAt ops (OnShard keeps the mark).
	OpCrash
	// OpRestart marks RestartAt ops (OnShard keeps the mark).
	OpRestart
)

// AllShards is the Op.Shard value of unqualified crash/restart ops,
// which strike replica i of every group.
const AllShards = -1

// Paired reports whether o and q are the two halves of one
// crash→restart pair: one crash and one restart addressing the same
// replica of the same shard scope. The shrinker removes such pairs as
// single edit units.
func (o Op) Paired(q Op) bool {
	if o.Kind == OpOther || q.Kind == OpOther || o.Kind == q.Kind {
		return false
	}
	return o.Replica == q.Replica && o.Shard == q.Shard
}

// Plan is an ordered fault schedule built with the *At methods and applied
// to a running cluster with Apply. Plans are declarative values: build one
// per scenario and reuse it across seeds — Apply schedules fresh events
// each time and never mutates the plan.
//
// Builder calls may be chained:
//
//	plan := scenario.NewPlan().
//		CrashAt(2*time.Millisecond, 0).
//		PartitionAt(4*time.Millisecond, []simnet.ProcessID{"replica-1"}, []simnet.ProcessID{"replica-2", "client"}).
//		HealAt(9*time.Millisecond)
type Plan struct {
	ops []Op
	// topologyBound marks plans whose ops name explicit process groups
	// (partitions): their semantics only hold for the replica set they
	// were written against.
	topologyBound bool
	// shardBound marks plans whose ops name explicit shard indices: their
	// semantics only hold for the shard count they were written against.
	shardBound bool
}

// NewPlan returns an empty fault plan.
func NewPlan() *Plan { return &Plan{} }

func (p *Plan) add(at time.Duration, name string, do func([]Target)) *Plan {
	p.ops = append(p.ops, Op{At: at, Name: name, Do: do, Shard: AllShards})
	return p
}

// addIdentified appends an op carrying structural identity (crash and
// restart builders route through it so the shrinker can pair them).
func (p *Plan) addIdentified(at time.Duration, name string, kind OpKind, shard, replica int, do func([]Target)) *Plan {
	p.ops = append(p.ops, Op{At: at, Name: name, Do: do, Kind: kind, Replica: replica, Shard: shard})
	return p
}

// CrashAt crashes replica i at the given virtual time. Scripted detectors
// suspect crashed processes automatically (strong completeness), so no
// companion suspicion op is needed. On a sharded target the crash is
// correlated: replica i of every group crashes at that instant.
func (p *Plan) CrashAt(at time.Duration, replica int) *Plan {
	return p.addIdentified(at, fmt.Sprintf("crash replica %d", replica), OpCrash, AllShards, replica, func(groups []Target) {
		each(groups, func(g Target) { g.CrashServer(replica) })
	})
}

// SuspectAt injects a (false) suspicion of target at every replica's
// detector at the given virtual time — the primitive that drags the
// protocol from its primary-backup flavor toward active replication.
func (p *Plan) SuspectAt(at time.Duration, target simnet.ProcessID) *Plan {
	return p.add(at, fmt.Sprintf("suspect %s", target), func(groups []Target) {
		each(groups, func(g Target) { g.SuspectEverywhere(target, true) })
	})
}

// ClientSuspectAt injects a suspicion of target at the client's detector,
// making the client fail over to the next replica.
func (p *Plan) ClientSuspectAt(at time.Duration, target simnet.ProcessID) *Plan {
	return p.add(at, fmt.Sprintf("client suspects %s", target), func(groups []Target) {
		each(groups, func(g Target) { g.ClientSuspect(target, true) })
	})
}

// UnsuspectAt clears suspicions of target everywhere — replicas and client
// — at the given virtual time, ending a false-suspicion pulse. It touches
// detectors only: a crashed process stays crashed (and scripted detectors
// keep suspecting it via strong completeness). Reviving a crashed replica
// is RestartAt's job.
func (p *Plan) UnsuspectAt(at time.Duration, target simnet.ProcessID) *Plan {
	return p.add(at, fmt.Sprintf("unsuspect %s", target), func(groups []Target) {
		each(groups, func(g Target) {
			g.SuspectEverywhere(target, false)
			g.ClientSuspect(target, false)
		})
	})
}

// RestartAt revives crashed replica i at the given virtual time, on targets
// that support it (see Restarter): the replica's endpoints reopen and a
// fresh incarnation recovers its durable state from the write-ahead log.
// On a never-crashed replica the op is a no-op (the target's contract), so
// a plan may schedule a restart without proving the crash fired first. On
// targets without a restart surface — the baselines — the op does nothing.
// On a sharded target the restart, like CrashAt, is correlated: replica i
// of every group restarts at that instant.
func (p *Plan) RestartAt(at time.Duration, replica int) *Plan {
	return p.addIdentified(at, fmt.Sprintf("restart replica %d", replica), OpRestart, AllShards, replica, func(groups []Target) {
		each(groups, func(g Target) { restart(g, replica) })
	})
}

// PartitionAt splits the network into the given groups at the given
// virtual time: messages between groups are black-holed until a HealAt.
// Processes not listed in any group keep all their links, so two singleton
// groups cut exactly one link; auxiliary endpoints ("p/fd", "p/cons")
// follow their base process.
func (p *Plan) PartitionAt(at time.Duration, groups ...[]simnet.ProcessID) *Plan {
	var parts []string
	for _, g := range groups {
		ids := make([]string, len(g))
		for i, id := range g {
			ids[i] = string(id)
		}
		parts = append(parts, "{"+strings.Join(ids, " ")+"}")
	}
	p.topologyBound = true
	return p.add(at, "partition "+strings.Join(parts, " | "), func(ts []Target) {
		each(ts, func(g Target) { g.Network().Partition(groups...) })
	})
}

// HealAt repairs the link fault plane — the active partition — at the
// given virtual time. Traffic black-holed while it was in force stays
// lost.
func (p *Plan) HealAt(at time.Duration) *Plan {
	return p.add(at, "heal", func(groups []Target) {
		each(groups, func(g Target) { g.Network().Heal() })
	})
}

// DelayStormAt multiplies every message delay by factor for a window of
// the given duration starting at the given virtual time, then restores
// calm.
func (p *Plan) DelayStormAt(at, duration time.Duration, factor float64) *Plan {
	p.add(at, fmt.Sprintf("delay storm ×%g", factor), func(groups []Target) {
		each(groups, func(g Target) { g.Network().SetDelayScale(factor) })
	})
	return p.add(at+duration, "delay storm ends", func(groups []Target) {
		each(groups, func(g Target) { g.Network().SetDelayScale(1) })
	})
}

// Ops returns a copy of the plan's operations in the order they were
// added. A nil plan has none.
func (p *Plan) Ops() []Op {
	if p == nil {
		return nil
	}
	return append([]Op(nil), p.ops...)
}

// Clone returns an independent copy of the plan: builder calls on the
// clone do not affect the original. The registry hands out clones so a
// fetched scenario can be tweaked without mutating the registered one.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	return &Plan{ops: p.Ops(), topologyBound: p.topologyBound, shardBound: p.shardBound}
}

// Concat returns a new plan holding this plan's ops followed by each given
// plan's ops, in order. Firing times are kept absolute, so concatenation is
// schedule merging, not sequencing: the result executes identically — at
// every virtual-time instant — to a plan whose builder calls were the
// concatenation of the operands' builder calls. Neither receiver nor
// arguments are mutated; nil plans are skipped.
func (p *Plan) Concat(others ...*Plan) *Plan {
	out := p.Clone()
	if out == nil {
		out = NewPlan()
	}
	for _, q := range others {
		if q == nil {
			continue
		}
		out.ops = append(out.ops, q.Ops()...)
		out.topologyBound = out.topologyBound || q.topologyBound
		out.shardBound = out.shardBound || q.shardBound
	}
	return out
}

// Without returns a copy of the plan with the ops at the given indices (in
// Ops() order) removed — the shrinker's plan-edit primitive. A nil plan
// stays nil.
func (p *Plan) Without(drop map[int]bool) *Plan {
	if p == nil {
		return nil
	}
	out := &Plan{topologyBound: p.topologyBound, shardBound: p.shardBound}
	for i, op := range p.ops {
		if !drop[i] {
			out.ops = append(out.ops, op)
		}
	}
	return out
}

// TopologyBound reports whether the plan names explicit process groups
// (PartitionAt). Such plans only make sense against the replica set they
// were written for; overriding the replication degree under them silently
// changes the fault's meaning.
func (p *Plan) TopologyBound() bool {
	if p == nil {
		return false
	}
	return p.topologyBound
}

// Horizon returns the firing time of the plan's latest operation. Runs
// that read verdicts should let the schedule settle past it.
func (p *Plan) Horizon() time.Duration {
	var h time.Duration
	for _, op := range p.ops {
		if op.At > h {
			h = op.At
		}
	}
	return h
}

// Apply schedules every operation of the plan on the deployment's clock,
// relative to the current virtual time, against its clusters: every
// replica group in shard order, or the one cluster. Call it before the
// workload is submitted: the clock does not move between waits, so ops
// land at the declared offsets. Ops added at the same instant fire in the
// order they were added to the plan; the whole schedule stays deterministic
// because each op is one discrete event of the virtual clock.
func (p *Plan) Apply(clk *vclock.Virtual, groups ...Target) {
	for _, op := range p.ops {
		do := op.Do
		clk.GoAfter(op.At, func() { do(groups) })
	}
}

// String renders the plan as one op per line, sorted by firing time (ties
// keep insertion order), e.g. for xsim's scenario listing.
func (p *Plan) String() string {
	ops := p.Ops()
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	var b strings.Builder
	for i, op := range ops {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%8v  %s", op.At, op.Name)
	}
	return b.String()
}
