package scenario

// THROWAWAY differential: the five run bodies and their dispatcher exactly
// as they stood before the one-driver refactor (renamed old*), compared
// against the new driver. Deleted together with the old bodies once green.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/baseline"
	"xability/internal/core"
	"xability/internal/event"
	"xability/internal/obs"
	"xability/internal/schedule"
	"xability/internal/shard"
	"xability/internal/sm"
	"xability/internal/vclock"
	"xability/internal/verify"
	"xability/internal/workload"
)

func oldExecute(sc Scenario, seed int64, record *schedule.Log, replay *schedule.Replay, scratch *runScratch, run *obs.Run) Outcome {
	sc = sc.withDefaults().Materialize(seed)
	sc.Net.Record, sc.Net.Replay = record, replay
	if run != nil {
		sc.Net.Metrics, sc.Net.Trace = run.Metrics, run.Trace
	}
	reqs := sc.Requests
	if sc.Workload != nil {
		reqs = workload.Generate(*sc.Workload, seed)
	}
	var o Outcome
	switch {
	case sc.Protocol == XAbility && sc.Shards > 0:
		// The sharded runtime is outside the record/replay plane (see
		// Scenario.Shards): drop the hooks rather than hand one log to
		// several racing networks. Reuse works per group: the scratch
		// recycles one network per shard via simnet.ResetShared.
		sc.Net.Record, sc.Net.Replay = nil, nil
		if sc.OpenLoop != nil {
			o = oldExecuteOpenLoopSharded(sc, seed, scratch)
		} else {
			o = oldExecuteSharded(sc, seed, reqs, scratch)
		}
	case sc.Protocol == XAbility && sc.OpenLoop != nil:
		o = oldExecuteOpenLoop(sc, seed, scratch)
	case sc.Protocol == XAbility:
		o = oldExecuteXAbility(sc, seed, reqs, scratch)
	default:
		o = oldExecuteBaseline(sc, seed, reqs, scratch)
	}
	o.Schedule = record
	return o
}
func oldExecuteXAbility(sc Scenario, seed int64, reqs []action.Request, scratch *runScratch) Outcome {
	bank := workload.NewBank(sc.Accounts, sc.Opening)
	netcfg := netConfig(sc, seed)
	c := core.NewCluster(core.ClusterConfig{
		Replicas:  sc.Replicas,
		Seed:      seed,
		Net:       netcfg,
		Network:   scratch.take(netcfg),
		Consensus: sc.Consensus,
		Detector:  sc.Detector,
		Registry:  workload.Registry(),
		Setup:     bank.Setup(),
		Batch:     sc.Batch,
		Costs:     sc.Costs,
		Durable:   sc.Durable,
		WALSync:   sc.WALSync,

		WALSnapshotSync:   sc.WALSnapshotSync,
		WALCompact:        sc.WALCompact,
		HeartbeatInterval: sc.HeartbeatInterval,
	})
	defer c.Stop()
	for _, f := range sc.Failures {
		c.Env.SetFailures(f.Action, f.Prob, f.Budget, f.AfterProb)
	}

	clk := c.Clock()
	clk.Enter()
	timedOut, disarm := oldWatchdog(sc, clk, c.Net.Close)
	if sc.Plan != nil {
		sc.Plan.Apply(c)
	}
	start := clk.Now()
	replied := true
	for _, r := range reqs {
		if c.Client.SubmitUntilSuccess(r) == "" {
			replied = false
		}
	}
	disarm()
	simTime := clk.Now() - start
	settleRun(sc, clk, c.Env.PendingOutcome)
	// Every observation — send counter, history, side-effect audit — is
	// snapshotted at the settle horizon, a fixed virtual instant, while
	// this goroutine is still attached: it was just woken by the pump, so
	// every protocol goroutine is blocked in a clock primitive and the
	// observed state cannot move. After Exit the clock free-runs, and
	// periodic activity (heartbeats, cleaner-paced cancellations) would
	// race the reads in wall time, making outcomes nondeterministic.
	msgs := c.Net.TotalSent()
	h := c.Observer.History()
	effects := auditEffects(reqs, c.Env.InForceTotal)
	dups := oldAuditDuplicates(reqs, c.Env.InForceTotal)
	wstats := c.WALStats()
	snap := sc.Net.Metrics.Snapshot() // nil-safe; nil when unobserved
	// Stop the cluster while still attached: once this goroutine Exits, a
	// live cluster's periodic loops (cleaners, heartbeats) would free-run
	// on the virtual clock at CPU speed, racing the verdict computation
	// for the host's cores. Stopping first turns the post-Exit schedule
	// into a bounded exit cascade. (Stop is non-blocking and idempotent;
	// the deferred Stop becomes a no-op.)
	c.Stop()
	clk.Exit()
	c.Net.Quiesce()

	logged, replies := c.Client.Log()
	rep := verify.Check(verify.Run{
		Registry:       workload.Registry(),
		Requests:       logged,
		Replies:        replies,
		History:        h,
		SubmitAttempts: c.Client.Attempts(),
	})
	o := outcomeFrom(sc, seed, reqs, h, replied)
	o.TimedOut = timedOut()
	o.XAble = rep.R3Strict || rep.R3Projected
	o.Report = rep
	o.Attempts = c.Client.Attempts()
	o.Messages = msgs
	o.SimTime = simTime
	o.EffectsInForce = effects
	o.ReplayDuplicates = dups
	o.WALAppends = wstats.Appends
	o.WALSyncTime = wstats.SyncTime
	o.WALCompactions = wstats.Compactions
	o.WALLiveRecords = wstats.LiveRecords
	o.Obs = snap
	return o
}
func oldExecuteBaseline(sc Scenario, seed int64, reqs []action.Request, scratch *runScratch) Outcome {
	scheme := baseline.PrimaryBackup
	if sc.Protocol == Active {
		scheme = baseline.Active
	}
	netcfg := netConfig(sc, seed)
	c := baseline.NewCluster(baseline.ClusterConfig{
		Scheme:    scheme,
		Replicas:  sc.Replicas,
		Seed:      seed,
		Net:       netcfg,
		Network:   scratch.take(netcfg),
		Handler:   DivergingHandler(),
		SyncDelay: sc.SyncDelay,
	})
	defer c.Stop()

	clk := c.Clock()
	clk.Enter()
	timedOut, disarm := oldWatchdog(sc, clk, c.Net.Close)
	if sc.Plan != nil {
		sc.Plan.Apply(c)
	}
	start := clk.Now()
	replied := true
	for _, r := range reqs {
		if c.Client.SubmitUntilSuccess(r) == "" {
			replied = false
		}
	}
	disarm()
	simTime := clk.Now() - start
	clk.Sleep(settleFor(sc))
	msgs := c.Net.TotalSent() // fixed virtual instant; see oldExecuteXAbility
	snap := sc.Net.Metrics.Snapshot()
	clk.Exit()
	c.Net.Quiesce()

	// Active replication keeps executing after the first reply returns to
	// the client; wait for the audit to stabilize so the outcome reports
	// the protocol's steady state.
	logged, _ := c.Client.Log()
	audit := func() int {
		total := 0
		for _, r := range logged {
			total += c.Env.InForce(r.Action, r.EffectiveInput())
		}
		return total
	}
	waitStable(clk, 2*time.Second, audit)

	// Snapshot history and audit at a pinned virtual instant: the
	// zero-length sleep returns via the pump, which only fires when every
	// other attached goroutine is blocked — so nothing is mid-step while
	// the snapshots are read (see oldExecuteXAbility).
	clk.Enter()
	clk.Sleep(0)
	trace := c.Observer.History()
	effects := audit()
	c.Stop() // while attached; see oldExecuteXAbility
	clk.Exit()
	o := outcomeFrom(sc, seed, reqs, trace, replied)
	o.TimedOut = timedOut()
	xable := len(logged) > 0
	for _, r := range logged {
		if !rawXAble(trace, r) {
			xable = false
		}
	}
	o.XAble = xable
	o.Attempts = c.Client.Attempts()
	o.Messages = msgs
	o.SimTime = simTime
	o.EffectsInForce = effects
	o.Obs = snap
	return o
}
func oldAuditDuplicates(reqs []action.Request, inForce func(action.Name, action.Value) int) int {
	type pair struct {
		a  action.Name
		iv action.Value
	}
	counted := make(map[pair]bool, len(reqs))
	dups := 0
	for _, r := range reqs {
		p := pair{r.Action, r.Input}
		if !counted[p] {
			counted[p] = true
			if inForce(r.Action, r.Input) > 1 {
				dups++
			}
		}
	}
	return dups
}
func oldShardConfig(sc Scenario, seed int64, scratch *runScratch, accounts int) shard.Config {
	banks := make([]*workload.Bank, sc.Shards)
	for s := range banks {
		banks[s] = workload.NewBank(accounts, sc.Opening)
	}
	netCfg := netConfig(sc, seed)
	nets, sharedClk := scratch.takeGroups(netCfg, seed, sc.Shards)
	if sharedClk != nil {
		netCfg.Clock = sharedClk
	}
	return shard.Config{
		Shards:            sc.Shards,
		Replicas:          sc.Replicas,
		Seed:              seed,
		Net:               netCfg,
		Networks:          nets,
		Consensus:         sc.Consensus,
		Detector:          sc.Detector,
		HeartbeatInterval: sc.HeartbeatInterval,
		Registry:          workload.Registry(),
		Setup:             func(s int) func(m *sm.Machine) { return banks[s].Setup() },
		Batch:             sc.Batch,
		Costs:             sc.Costs,
		Durable:           sc.Durable,
		WALSync:           sc.WALSync,
		WALSnapshotSync:   sc.WALSnapshotSync,
		WALCompact:        sc.WALCompact,
	}
}
func oldExecuteSharded(sc Scenario, seed int64, reqs []action.Request, scratch *runScratch) Outcome {
	c := shard.New(oldShardConfig(sc, seed, scratch, sc.Accounts))
	defer c.Stop()
	for s := 0; s < c.Shards(); s++ {
		for _, f := range sc.Failures {
			c.Group(s).Env.SetFailures(f.Action, f.Prob, f.Budget, f.AfterProb)
		}
	}

	clk := c.Clock()
	clk.Enter()
	timedOut, disarm := oldWatchdog(sc, clk, c.CloseNets)
	if sc.Plan != nil {
		sc.Plan.Apply(shardedTarget{c})
	}
	start := clk.Now()
	_, replied := c.Router.CallAll(reqs)
	disarm()
	simTime := clk.Now() - start
	settleRun(sc, clk, func() int {
		n := 0
		for s := 0; s < c.Shards(); s++ {
			n += c.Group(s).Env.PendingOutcome()
		}
		return n
	})
	// Observations — send counters, histories, the audit — are all read at
	// the settle horizon while still attached: the pump just woke this
	// goroutine, so every protocol goroutine in every group is blocked and
	// the snapshots are taken at one fixed virtual instant (see
	// oldExecuteXAbility).
	msgs := c.TotalSent()
	hs := c.Histories()
	// The audit spans every group's environment: the owner accounts for
	// the effect, and a mis-routed duplicate applied by a non-owner
	// inflates the count instead of hiding.
	effects := auditEffects(reqs, c.EffectsInForce)
	wstats := c.WALStats()
	snap := sc.Net.Metrics.Snapshot()
	// Stop while attached so the groups' periodic loops cannot free-run
	// against the (expensive) merged verification below — see
	// oldExecuteXAbility.
	c.Stop()
	clk.Exit()
	c.Quiesce()

	rep := c.VerifyHistories(workload.Registry(), hs)
	var merged event.History
	for _, h := range hs {
		merged = append(merged, h...)
	}
	o := outcomeFrom(sc, seed, reqs, merged, replied)
	o.TimedOut = timedOut()
	o.Shards = sc.Shards
	o.ShardReports = rep.Shards
	o.RoutingExact = rep.RoutingExact
	o.XAble = rep.XAble()
	o.Attempts = c.Attempts()
	o.Messages = msgs
	o.SimTime = simTime
	o.EffectsInForce = effects
	o.WALAppends = wstats.Appends
	o.WALSyncTime = wstats.SyncTime
	o.WALCompactions = wstats.Compactions
	o.WALLiveRecords = wstats.LiveRecords
	o.Obs = snap
	return o
}
func oldExecuteOpenLoop(sc Scenario, seed int64, scratch *runScratch) Outcome {
	spec := openLoopSpec(sc)
	arrivals := workload.GenerateOpenLoop(spec, seed)
	ats, reqs := splitArrivals(arrivals)

	bank := workload.NewBank(spec.Accounts, sc.Opening)
	netcfg := netConfig(sc, seed)
	c := core.NewCluster(core.ClusterConfig{
		Replicas:  sc.Replicas,
		Seed:      seed,
		Net:       netcfg,
		Network:   scratch.take(netcfg),
		Consensus: sc.Consensus,
		Detector:  sc.Detector,
		Registry:  workload.Registry(),
		Setup:     bank.Setup(),
		Batch:     sc.Batch,
		Costs:     sc.Costs,

		HeartbeatInterval: sc.HeartbeatInterval,
	})
	defer c.Stop()
	for _, f := range sc.Failures {
		c.Env.SetFailures(f.Action, f.Prob, f.Budget, f.AfterProb)
	}
	st := c.OpenStation()

	clk := c.Clock()
	clk.Enter()
	timedOut, disarm := oldWatchdog(sc, clk, c.Net.Close)
	if sc.Plan != nil {
		sc.Plan.Apply(c)
	}
	start := clk.Now()
	completed := st.Drive(ats, reqs)
	disarm()
	simTime := clk.Now() - start
	settleRun(sc, clk, c.Env.PendingOutcome)
	// Snapshots at the settle horizon, while attached — see
	// oldExecuteXAbility for why this pins determinism.
	msgs := c.Net.TotalSent()
	h := c.Observer.History()
	effects := auditEffects(reqs, c.Env.InForceTotal)
	lat := workload.SummarizeLatencies(st.Latencies())
	snap := sc.Net.Metrics.Snapshot()
	c.Stop()
	clk.Exit()
	c.Net.Quiesce()

	logged, replies := st.Log()
	rep := verify.Check(verify.Run{
		Registry:       workload.Registry(),
		Requests:       logged,
		Replies:        replies,
		History:        h,
		SubmitAttempts: st.Attempts(),
		Concurrent:     true,
	})
	o := outcomeFrom(sc, seed, reqs, h, completed == len(reqs))
	o.TimedOut = timedOut()
	o.XAble = rep.R3Strict || rep.R3Projected
	o.Report = rep
	o.Attempts = st.Attempts()
	o.Messages = msgs
	o.SimTime = simTime
	o.EffectsInForce = effects
	o.Latency = lat
	o.Obs = snap
	return o
}
func oldExecuteOpenLoopSharded(sc Scenario, seed int64, scratch *runScratch) Outcome {
	spec := openLoopSpec(sc)
	arrivals := workload.GenerateOpenLoop(spec, seed)

	c := shard.New(oldShardConfig(sc, seed, scratch, spec.Accounts))
	defer c.Stop()
	for s := 0; s < c.Shards(); s++ {
		for _, f := range sc.Failures {
			c.Group(s).Env.SetFailures(f.Action, f.Prob, f.Budget, f.AfterProb)
		}
	}

	shards := c.Shards()
	ats := make([][]time.Duration, shards)
	sreqs := make([][]action.Request, shards)
	all := make([]action.Request, 0, len(arrivals))
	for _, a := range arrivals {
		s := c.Ring().Owner(shard.InputKey(a.Req))
		ats[s] = append(ats[s], a.At)
		sreqs[s] = append(sreqs[s], a.Req)
		all = append(all, a.Req)
	}
	stations := make([]*core.Station, shards)
	for s := range stations {
		stations[s] = c.Group(s).OpenStation()
	}

	clk := c.Clock()
	clk.Enter()
	timedOut, disarm := oldWatchdog(sc, clk, c.CloseNets)
	if sc.Plan != nil {
		sc.Plan.Apply(shardedTarget{c})
	}
	start := clk.Now()
	// One driver goroutine per group; join on the shared clock's condition
	// (the Drive goroutines always hold pending timers, so the untimed
	// wait cannot starve the virtual clock).
	var mu sync.Mutex
	cond := clk.NewCond(&mu)
	done, completed := 0, 0
	for s := range stations {
		s := s
		clk.Go(func() {
			n := stations[s].Drive(ats[s], sreqs[s])
			mu.Lock()
			done++
			completed += n
			mu.Unlock()
			cond.Broadcast()
		})
	}
	mu.Lock()
	for done < len(stations) {
		cond.Wait()
	}
	mu.Unlock()
	disarm()
	simTime := clk.Now() - start
	settleRun(sc, clk, func() int {
		n := 0
		for s := 0; s < c.Shards(); s++ {
			n += c.Group(s).Env.PendingOutcome()
		}
		return n
	})
	// Snapshots at the settle horizon, while attached (see
	// oldExecuteXAbility).
	msgs := c.TotalSent()
	hs := c.Histories()
	effects := auditEffects(all, c.EffectsInForce)
	var lats []time.Duration
	for _, st := range stations {
		lats = append(lats, st.Latencies()...)
	}
	snap := sc.Net.Metrics.Snapshot()
	c.Stop()
	clk.Exit()
	c.Quiesce()

	rep := oldOpenLoopShardReport(c, stations, hs)
	var merged event.History
	for _, h := range hs {
		merged = append(merged, h...)
	}
	o := outcomeFrom(sc, seed, all, merged, completed == len(arrivals))
	o.TimedOut = timedOut()
	o.Shards = sc.Shards
	o.ShardReports = rep.Shards
	o.RoutingExact = rep.RoutingExact
	o.XAble = rep.XAble()
	for _, st := range stations {
		o.Attempts += st.Attempts()
	}
	o.Messages = msgs
	o.SimTime = simTime
	o.EffectsInForce = effects
	o.Latency = workload.SummarizeLatencies(lats)
	o.Obs = snap
	return o
}
func oldOpenLoopShardReport(c *shard.Cluster, stations []*core.Station, hs []event.History) shard.Report {
	rep := shard.Report{RoutingExact: true}
	seen := make(map[string]int)
	for s, st := range stations {
		logged, replies := st.Log()
		rep.Shards = append(rep.Shards, verify.Check(verify.Run{
			Registry:       workload.Registry(),
			Requests:       logged,
			Replies:        replies,
			History:        hs[s],
			SubmitAttempts: st.Attempts(),
			Concurrent:     true,
		}))
		for _, req := range logged {
			if want := c.Ring().Owner(shard.InputKey(req)); want != s {
				rep.RoutingExact = false
				rep.Details = append(rep.Details, fmt.Sprintf(
					"routing: %s completed on shard %d, ring owner is %d", req.ID, s, want))
			}
			if prev, dup := seen[req.ID]; dup {
				rep.RoutingExact = false
				rep.Details = append(rep.Details, fmt.Sprintf(
					"routing: %s completed in shards %d and %d", req.ID, prev, s))
			} else {
				seen[req.ID] = s
			}
		}
	}
	return rep
}

func oldWatchdog(sc Scenario, clk vclock.Clock, closeNets func()) (fired func() bool, disarm func()) {
	if sc.Deadline <= 0 {
		return func() bool { return false }, func() {}
	}
	var hit, done atomic.Bool
	clk.GoAfter(sc.Deadline, func() {
		if done.Load() {
			return
		}
		hit.Store(true)
		closeNets()
	})
	return hit.Load, func() { done.Store(true) }
}

// TestDriverMatchesOldBodies runs every registered scenario on 64 seeds
// through the old five-body path and through the one driver, on a fresh
// world and on a recycled per-worker scratch, and demands deeply equal
// outcomes — History, reports and all. GOMAXPROCS=1 is the only setting at
// which either path's counts are exact.
func TestDriverMatchesOldBodies(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runs, diffs := 0, 0
	for _, name := range Names() {
		sc, _ := Get(name)
		oldScratch, newScratch := &runScratch{}, &runScratch{}
		for seed := int64(1); seed <= 64; seed++ {
			for _, fresh := range []bool{true, false} {
				var os, ns *runScratch
				if !fresh {
					os, ns = oldScratch, newScratch
				}
				want := oldExecute(sc, seed, nil, nil, os, nil)
				got := execute(sc, seed, RunOptions{}, ns)
				runs++
				if !reflect.DeepEqual(want, got) {
					diffs++
					if diffs <= 10 {
						want.History, got.History = nil, nil
						t.Errorf("%s seed %d fresh=%v: driver outcome differs from old body\n old: %+v\n new: %+v", name, seed, fresh, want, got)
					}
				}
			}
		}
	}
	t.Logf("differential: %d runs (%d scenarios x 64 seeds x {fresh, recycled}), %d differ", runs, len(Names()), diffs)
}

// TestDriverMatchesOldBodiesObservedAndTraced covers the other two option
// values: an observed run (metrics snapshot included in the comparison)
// and a recorded run (the schedule logs must be equal entry for entry).
func TestDriverMatchesOldBodiesObservedAndTraced(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range Names() {
		sc, _ := Get(name)
		for seed := int64(1); seed <= 8; seed++ {
			or, nr := &obs.Run{Metrics: obs.NewMetrics(), Trace: obs.NewTrace(0)}, &obs.Run{Metrics: obs.NewMetrics(), Trace: obs.NewTrace(0)}
			want := oldExecute(sc, seed, nil, nil, nil, or)
			got := Run(sc, seed, RunOptions{Obs: nr})
			if !reflect.DeepEqual(want, got) {
				want.History, got.History = nil, nil
				t.Errorf("%s seed %d observed: differs\n old: %+v\n new: %+v", name, seed, want, got)
			}
			// Trace timestamps are absolute virtual times, and the clock
			// free-runs between cluster construction and the driver's
			// Enter for as long as the host takes to get there (both
			// paths, unchanged): compare the events, not the "t=" column.
			if !reflect.DeepEqual(untimed(or.Trace.RenderText()), untimed(nr.Trace.RenderText())) {
				t.Errorf("%s seed %d observed: request traces differ", name, seed)
			}
			ol, nl := schedule.NewLog(), schedule.NewLog()
			want = oldExecute(sc, seed, ol, nil, nil, nil)
			got = Run(sc, seed, RunOptions{Record: nl})
			want.Schedule, got.Schedule = nil, nil
			if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(ol.Entries(), nl.Entries()) {
				t.Errorf("%s seed %d recorded: outcome or schedule log differs", name, seed)
			}
		}
	}
}

func untimed(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = strings.TrimLeft(strings.TrimLeft(strings.TrimPrefix(l, "t="), "0123456789.µmns"), " ")
	}
	return out
}
