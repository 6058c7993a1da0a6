package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xability/internal/action"
	"xability/internal/baseline"
	"xability/internal/core"
	"xability/internal/env"
	"xability/internal/event"
	"xability/internal/obs"
	"xability/internal/reduce"
	"xability/internal/schedule"
	"xability/internal/shard"
	"xability/internal/simnet"
	"xability/internal/sm"
	"xability/internal/trace"
	"xability/internal/vclock"
	"xability/internal/verify"
	"xability/internal/wal"
	"xability/internal/workload"
)

// Protocol names the replication protocol a scenario attacks.
type Protocol string

const (
	// XAbility is the paper's protocol (internal/core).
	XAbility Protocol = "x-ability"
	// PrimaryBackup is the [BMST93]-style baseline.
	PrimaryBackup Protocol = "primary-backup"
	// Active is the [Sch93]-style baseline.
	Active Protocol = "active"
)

// Failure arms environment failure injection for one action: invocations
// fail with probability Prob until Budget failures have struck (eventual
// success, §5.2); AfterProb is the fraction of failures striking after the
// side effect applied. Failures stretch executions across virtual time so
// timed fault ops land mid-run.
type Failure struct {
	Action    action.Name
	Prob      float64
	Budget    int
	AfterProb float64
}

// Scenario is one complete adversarial experiment, declaratively: which
// protocol to deploy, on what network, with which injected environment
// failures, driven by which fault plan, submitting which requests. A
// Scenario is a value — register it once, then Execute it on any seed or
// Sweep it across thousands.
type Scenario struct {
	// Name identifies the scenario in the registry and on CLI flags.
	Name string
	// Label is the scenario column of the experiment tables; it defaults
	// to Name. Distinct scenarios of different protocols may share a
	// label ("nice", "crash-failover") so table rows align.
	Label string
	// Description is a one-line summary for listings.
	Description string

	// Protocol selects the stack under test (default XAbility).
	Protocol Protocol
	// Replicas is the replication degree (default 3).
	Replicas int
	// Shards, when positive, deploys the x-ability protocol on the sharded
	// runtime (internal/shard): Shards replica groups — each a full
	// cluster on its own network — behind the keyspace router, all on one
	// virtual clock, the workload routed by account key with per-shard
	// streams running concurrently. Zero keeps the single-cluster runtime
	// (1 is the one-group router deployment, the honest baseline for
	// shard-scaling comparisons). Baseline protocols ignore it. Sharded
	// runs sit outside the record/replay plane: the groups' private
	// networks would interleave one log nondeterministically.
	Shards int
	// Consensus selects the x-ability protocol's consensus substrate.
	Consensus core.ConsensusMode
	// Detector selects the x-ability protocol's failure detectors.
	Detector core.DetectorMode
	// Net tunes the simulated network. The seed is supplied per run; a
	// zero MaxDelay defaults to 200µs.
	Net simnet.Config
	// SyncDelay widens primary-backup's duplication window.
	SyncDelay time.Duration

	// Batch enables the x-ability protocol's batched/pipelined slot plane
	// on every replica (zero value: per-request protocol). Baselines
	// ignore it.
	Batch core.BatchConfig
	// Costs charges virtual CPU time per consensus proposal and per
	// execution attempt (zero value: free). Without costs the simulated
	// replicas have unbounded capacity and open-loop throughput never
	// saturates; with them the saturation experiments (T11) measure real
	// queueing.
	Costs core.CostModel

	// Durable gives every replica stable storage (internal/wal): servers
	// write-ahead request sightings, round claims, and finishes, CT
	// acceptors their estimates and decisions, and Plan.RestartAt can
	// revive a crashed replica from its log. Without it a crash is
	// permanent (the paper's §5.2 no-recovery model) and RestartAt is a
	// no-op. Sharded runs give every group its own store, recycled with
	// the group, so shard-scoped restarts (Plan.RestartShardAt) recover
	// from per-group logs. Baselines ignore it — they have no restart
	// surface.
	Durable bool
	// WALSync is the virtual-time sync tariff charged per WAL append when
	// Durable is set. Zero keeps stable storage schedule-invisible, so a
	// durable run with no restarts is byte-identical to its in-memory
	// twin; a positive tariff prices the paper's stable-storage writes
	// and shifts the whole schedule (T12's cost curve).
	WALSync time.Duration
	// WALSnapshotSync is the per-record sync tariff charged while writing
	// a compaction snapshot (zero: inherit WALSync). Snapshots write many
	// records back-to-back, so pricing them separately lets T14's cost
	// curve distinguish steady-state appends from compaction stalls.
	WALSnapshotSync time.Duration
	// WALCompact, when positive, compacts each replica's log whenever its
	// dead-record count reaches the threshold (see wal.Store). Zero never
	// compacts.
	WALCompact int

	// Accounts and Opening size the bank the replicas serve (defaults 1
	// account, 100 opening balance).
	Accounts int
	// Opening is the per-account opening balance (default 100).
	Opening int

	// Failures arms environment failure injection before the run starts.
	Failures []Failure
	// Plan is the timed fault schedule (may be nil for fault-free runs).
	Plan *Plan
	// RandomFaults, when set, draws a seeded random fault schedule from
	// the run's seed (Plan.Random) and merges it with Plan, so every seed
	// of a sweep fights a different schedule while each run stays a
	// replayable (scenario, seed) value. Zero-valued options default to
	// the scenario's replication degree and shard count.
	RandomFaults *RandomOptions

	// Requests is the submitted workload (default: one debit of acct-0).
	// Ignored when Workload is set.
	Requests []action.Request
	// Workload, when set, generates the request sequence from the run's
	// seed, so every seed of a sweep exercises a different sequence.
	Workload *workload.Spec
	// OpenLoop, when set, replaces the closed-loop workload entirely: the
	// run drives a seeded open-loop arrival schedule (many concurrent
	// single-request sessions through a core.Station) instead of one
	// sequential client session. Requests/Workload are ignored; the
	// verifier runs under the concurrent per-request relaxation
	// (verify.Run.Concurrent) because an open-loop completion log has no
	// sequential form. An unset Accounts in the spec defaults to the
	// scenario's Accounts.
	OpenLoop *workload.OpenLoopSpec

	// Settle extends the run past the last submit by this much virtual
	// time before verdicts are read, letting in-flight protocol activity
	// (a partitioned replica resolving its round after a heal, late
	// active-replication executions) finish. Runs always settle at least
	// 2ms past the plan's horizon.
	Settle time.Duration

	// HeartbeatInterval tunes the ◇P heartbeat detectors when Detector is
	// DetectorHeartbeat (zero selects the core default).
	HeartbeatInterval time.Duration

	// Deadline, when positive, caps the run at this much virtual time:
	// a watchdog closes the network, the client's retry obligation
	// lapses, and the outcome reports TimedOut. Zero means no cap. The
	// shrinker sets it so that edited schedules that would stall a client
	// await forever still terminate (and are then rejected, because a
	// hung run is not the recorded failure).
	Deadline time.Duration
}

// TableLabel returns the scenario's experiment-table label.
func (sc Scenario) TableLabel() string {
	if sc.Label != "" {
		return sc.Label
	}
	return sc.Name
}

// withDefaults resolves the zero values documented on the fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.Protocol == "" {
		sc.Protocol = XAbility
	}
	if sc.Replicas <= 0 {
		sc.Replicas = 3
	}
	if sc.Net.MinDelay == 0 && sc.Net.MaxDelay == 0 {
		sc.Net.MaxDelay = 200 * time.Microsecond
	}
	if sc.Accounts <= 0 {
		sc.Accounts = 1
	}
	if sc.Opening == 0 {
		sc.Opening = 100
	}
	if len(sc.Requests) == 0 && sc.Workload == nil && sc.OpenLoop == nil {
		sc.Requests = []action.Request{action.NewRequest("debit", "acct-0")}
	}
	return sc
}

// Materialize resolves the seed-derived parts of a scenario into explicit
// values: with RandomFaults set, the drawn schedule is concatenated onto
// Plan and the knob cleared, so the result is a plain fixed-plan scenario
// for this seed. Execute does this implicitly; the shrinker does it
// explicitly so drawn fault ops are editable like hand-written ones.
// Idempotent; the receiver (and its registered plan) is not mutated.
func (sc Scenario) Materialize(seed int64) Scenario {
	if sc.RandomFaults == nil {
		return sc
	}
	sc = sc.withDefaults()
	opt := *sc.RandomFaults
	if opt.Replicas <= 0 {
		opt.Replicas = sc.Replicas
	}
	if opt.Shards < 1 {
		opt.Shards = sc.Shards
	}
	sc.Plan = sc.Plan.Concat(NewPlan().Random(seed, opt))
	sc.RandomFaults = nil
	return sc
}

// Outcome is the verdict of one scenario run: did the run look
// exactly-once to the checker and to the environment's audit, and what did
// it cost.
type Outcome struct {
	// Scenario and Seed identify the run.
	Scenario string
	Seed     int64

	// XAble is the checker's verdict on the observed history (strict or
	// per-request projection for the x-ability protocol; the charitable
	// idempotent reading for baselines).
	XAble bool
	// Replied reports whether every submitted request got an answer (R2).
	Replied bool
	// EffectsInForce is the environment audit for the first request's
	// action: applications of the side effect still in force across all
	// round tags. Exactly-once means 1 per request; the audit sums over
	// the run's requests.
	EffectsInForce int
	// Executions counts start events of the first request's action — 1
	// means the run stayed in the primary-backup flavor, more means
	// active-replication drift (or baseline duplication).
	Executions int
	// Cancels counts completed cancellation actions (the protocol's
	// cleanup work).
	Cancels int
	// ReplayDuplicates counts workload (action, input) pairs whose side
	// effect is in force, at the settle instant, more often than the
	// workload submitted the pair — the duplicate-replay audit, filled
	// for every x-ability deployment (always 0 for the baselines, whose
	// duplication EffectsInForce reports). A restarted replica that
	// re-applied an effect it had already applied before crashing shows
	// up here even when the client-visible verdicts all pass.
	ReplayDuplicates int

	// WALAppends and WALSyncTime report stable-storage activity for
	// durable runs (zero otherwise): records appended across all logs,
	// and total virtual time spent in sync tariffs. WALCompactions counts
	// compaction passes across all logs and WALLiveRecords the records
	// still live at the settle instant — together they pin that a
	// compacting log stays bounded by live state, not by history length.
	WALAppends     int
	WALSyncTime    time.Duration
	WALCompactions int
	WALLiveRecords int

	// Requests, Attempts, and Messages are the run's volume counters.
	Requests int
	Attempts int
	Messages int
	// SimTime is the virtual time the workload spanned (excluding
	// settling).
	SimTime time.Duration
	// Latency summarizes per-session submit→reply virtual latencies for
	// open-loop runs (zero value otherwise).
	Latency workload.LatencySummary

	// TimedOut reports that the scenario's Deadline watchdog killed the
	// run before the workload finished.
	TimedOut bool

	// Shards echoes Scenario.Shards for sharded runs (0 otherwise);
	// ShardReports carries each group's R2–R4 verdicts and RoutingExact
	// the router's global exactly-once-routing audit. XAble for a sharded
	// run is the merged verdict: every shard reduces and routing is exact.
	Shards       int
	ShardReports []verify.Report
	RoutingExact bool

	// Obs is the run's metrics snapshot, read at the same pinned settle
	// instant as the other observations. Nil unless the run was executed
	// with the observability plane armed (RunOptions.Obs, or a sweep with
	// SweepOptions.Metrics).
	Obs *obs.Snapshot

	// History is the observed event trace (dropped by Sweep to bound
	// memory).
	History event.History
	// Report is the R2–R4 verdict; meaningful for the x-ability protocol
	// only (baselines are judged by XAble and the audit).
	Report verify.Report
	// Schedule is the recorded delivery log (runs with RunOptions.Record
	// only; nil otherwise, and nil on a sharded run, which records nothing).
	Schedule *schedule.Log
	// Counterexample is the rendered minimal failing trace; the shrinker
	// (internal/shrink) fills it on the outcome of a minimized run.
	Counterexample string
}

// RunOptions arms the optional planes of one run. The zero value is a
// plain run.
type RunOptions struct {
	// Record, when non-nil, has the network log every delivery decision
	// into it; the outcome carries it as Schedule.
	Record *schedule.Log
	// Replay, when non-nil, re-executes the given log instead of drawing
	// delays from the seed. Together with Record it is the
	// record/replay/shrink pipeline's entry point.
	Replay *schedule.Replay
	// Obs, when non-nil, has the run's networks stamp counters and latency
	// observations into Obs.Metrics and request-lifecycle spans into
	// Obs.Trace (either may be nil); the metrics snapshot — read at the
	// same pinned settle-horizon instant as the run's other observations —
	// lands in Outcome.Obs. Observation does not perturb the schedule: an
	// observed run's verdict fields are byte-equal to its unobserved
	// twin's.
	Obs *obs.Run
}

// Run carries one seed through a scenario and returns its outcome. Runs
// are deterministic: equal (scenario, seed, options) inputs yield equal
// outcomes, which is what makes sweep distributions replayable.
func Run(sc Scenario, seed int64, opts RunOptions) Outcome { return execute(sc, seed, opts, nil) }

// Execute is Run with no plane armed.
func Execute(sc Scenario, seed int64) Outcome { return Run(sc, seed, RunOptions{}) }

// ExecuteObserved is Run with only the observability plane armed.
func ExecuteObserved(sc Scenario, seed int64, run *obs.Run) Outcome {
	return Run(sc, seed, RunOptions{Obs: run})
}

// runScratch is a sweep worker's reusable substrate: the deployment's
// networks — one per cluster, with their endpoints, interning tables, and
// event pools — recycled across the worker's seeds via simnet.Reset, instead
// of allocating a fresh world per run. The protocol actors (servers,
// clients, machines, environment) are still rebuilt per seed: they are cheap
// and hold all run state, so reuse stays invisible to outcomes — the sweep
// determinism tests pin bit-equal results against fresh-world Execute runs.
type runScratch struct {
	nets []*simnet.Network
}

// take returns n networks ready for a seeded run on base.Clock, network g
// seeded seedFor(g): the recycled ones, Reset in cluster order (the first
// drain quiesces the previous run's clock; the rest return immediately), or
// fresh ones that later seeds then recycle — the first time, when n changed,
// or when a network's previous run failed to wind down (the set is then
// abandoned rather than risked).
func (s *runScratch) take(base simnet.Config, n int, seedFor func(g int) int64) []*simnet.Network {
	cfgFor := func(g int) simnet.Config {
		cfg := base
		cfg.Seed = seedFor(g)
		return cfg
	}
	reusable := len(s.nets) == n
	for g := 0; reusable && g < n; g++ {
		reusable = s.nets[g].Reset(cfgFor(g))
	}
	if !reusable {
		s.nets = make([]*simnet.Network, n)
		for g := range s.nets {
			s.nets[g] = simnet.New(cfgFor(g))
		}
	}
	return s.nets
}

// deployment is what one run stands up: a clock and the clusters on it.
// There are two kinds. The x-ability family is always a list of replica
// groups: one, or Scenario.Shards of them behind the keyspace router —
// x-ability is local, so a sharded deployment is just groups that each
// verify on their own. The baselines are the second and last kind: one
// primary-backup or active cluster.
type deployment struct {
	clk     *vclock.Virtual
	members []member       // one per cluster, in group order
	router  *shard.Cluster // non-nil when the groups sit behind the router
	base    *baseline.Cluster
}

// member is one cluster of a deployment as the driver reads it: what
// core.Cluster and baseline.Cluster both expose, plus what only a replica
// group has.
type member struct {
	target   Target // the cluster's fault surface
	net      *simnet.Network
	env      *env.Env
	observer *trace.Observer
	client   *core.Client
	session  session       // the completion log the verdict checks
	group    *core.Cluster // nil for a baseline cluster
	station  *core.Station // open-loop load only
	history  event.History // snapshotted by the driver
}

// session is a cluster's completion log: the closed loop's client or the
// open loop's station.
type session interface {
	Log() ([]action.Request, []action.Value)
	Attempts() int
}

// load is what a run submits: the closed-loop request list, one
// sequential client session per group, or the open-loop arrival schedule
// (reqs[i] arrives at ats[i]), many concurrent single-request sessions
// through one Station per group.
type load struct {
	reqs     []action.Request
	ats      []time.Duration
	open     bool
	accounts int // sizes each group's bank
}

// groupConfig is the one place a scenario becomes a replica group's
// configuration, for the single cluster and for the template the sharded
// runtime builds every group from alike. Network stays unset: deploy hands
// each cluster its own.
func groupConfig(sc Scenario, seed int64, net simnet.Config, accounts int) core.ClusterConfig {
	return core.ClusterConfig{
		Replicas:          sc.Replicas,
		Seed:              seed,
		Net:               net,
		Consensus:         sc.Consensus,
		Detector:          sc.Detector,
		HeartbeatInterval: sc.HeartbeatInterval,
		Registry:          workload.Registry(),
		Setup:             workload.NewBank(accounts, sc.Opening).Setup(),
		Batch:             sc.Batch,
		Costs:             sc.Costs,
		Durable:           sc.Durable,
		WALSync:           sc.WALSync,
		WALSnapshotSync:   sc.WALSnapshotSync,
		WALCompact:        sc.WALCompact,
	}
}

// deploy builds and starts the scenario's deployment on a clock it creates
// here and on networks it takes from the scratch (a single run's scratch is
// empty, so its world is fresh): every run's world and its clock begin in
// this function.
func deploy(sc Scenario, seed int64, l load, scratch *runScratch) *deployment {
	if scratch == nil {
		scratch = &runScratch{}
	}
	d := &deployment{clk: vclock.NewVirtual()}
	net := sc.Net
	net.Seed, net.Clock = seed, d.clk
	sharded := sc.Protocol == XAbility && sc.Shards > 0
	n, seedFor := 1, func(int) int64 { return seed }
	if sharded {
		n, seedFor = sc.Shards, func(g int) int64 { return shard.GroupSeed(seed, int64(g)) }
	}
	nets := scratch.take(net, n, seedFor)
	switch {
	case sc.Protocol != XAbility:
		scheme := baseline.PrimaryBackup
		if sc.Protocol == Active {
			scheme = baseline.Active
		}
		c := baseline.NewCluster(baseline.ClusterConfig{
			Scheme:    scheme,
			Replicas:  sc.Replicas,
			Seed:      seed,
			Net:       net,
			Network:   nets[0],
			Handler:   DivergingHandler(),
			SyncDelay: sc.SyncDelay,
		})
		d.base = c
		d.members = []member{{target: c, net: c.Net, env: c.Env, observer: c.Observer, client: c.Client}}
	case sharded:
		// Every group owns its slice of the application state: its own bank.
		accounts, opening := l.accounts, sc.Opening
		d.router = shard.New(shard.Config{
			Shards:   sc.Shards,
			Group:    groupConfig(sc, seed, net, accounts),
			Setup:    func(int) func(*sm.Machine) { return workload.NewBank(accounts, opening).Setup() },
			Networks: nets,
		})
		d.members = make([]member, sc.Shards)
		for s := range d.members {
			d.members[s].group = d.router.Group(s)
		}
	default:
		cfg := groupConfig(sc, seed, net, l.accounts)
		cfg.Network = nets[0]
		d.members = []member{{group: core.NewCluster(cfg)}}
	}
	for i := range d.members {
		m := &d.members[i]
		if g := m.group; g != nil {
			m.target, m.net, m.env, m.observer, m.client = g, g.Net, g.Env, g.Observer, g.Client
			for _, f := range sc.Failures {
				g.Env.SetFailures(f.Action, f.Prob, f.Budget, f.AfterProb)
			}
			if l.open {
				m.station = g.OpenStation()
			}
		}
		m.session = m.client
		if m.station != nil {
			m.session = m.station
		}
	}
	return d
}

// apply schedules the scenario's fault plan against the deployment's
// clusters. Call with the clock held.
func (d *deployment) apply(p *Plan) {
	groups := make([]Target, len(d.members))
	for i, m := range d.members {
		groups[i] = m.target
	}
	p.Apply(d.clk, groups...)
}

// stop shuts every cluster down. Non-blocking and idempotent, so the
// driver can stop while still attached and keep a deferred stop as the
// panic path.
func (d *deployment) stop() {
	if d.base != nil {
		d.base.Stop()
	}
	for _, m := range d.members {
		if m.group != nil {
			m.group.Stop()
		}
	}
}

// drive submits the load and reports whether every request was answered.
func (d *deployment) drive(l load) bool {
	switch {
	case l.open:
		return d.driveOpenLoop(l) == len(l.reqs)
	case d.router != nil:
		// Per-shard streams run concurrently on the shared clock, so
		// simulated time measures aggregate throughput.
		_, replied := d.router.Router.CallAll(l.reqs)
		return replied
	}
	replied := true
	for _, r := range l.reqs {
		if d.members[0].client.SubmitUntilSuccess(r) == "" {
			replied = false
		}
	}
	return replied
}

// audit is the environment audit: effects in force over the workload, and
// the duplicate-replay count. For the x-ability family it is read at the
// settle horizon and spans every group's environment: the owner accounts
// for the effect, and a mis-routed duplicate applied by a non-owner
// inflates the count instead of hiding.
//
// A baseline's audit moves the snapshot instant first. Active replication
// keeps executing after the first reply returns to the client, so the
// driver detaches and waits for the audit to stop moving: the outcome
// reports the protocol's steady state. That wait is behaviour of the
// baselines, not a second copy of the settle. It ends re-attached at a
// pinned instant — the zero-length sleep returns via the pump, which only
// fires when every other attached goroutine is blocked — so nothing is
// mid-step while the audit and the history are read.
func (d *deployment) audit(l load) (effects, dups int) {
	if d.base == nil {
		return auditEffects(l.reqs, func(a action.Name, iv action.Value) int {
			total := 0
			for _, m := range d.members {
				total += m.env.InForceTotal(a, iv)
			}
			return total
		})
	}
	answered, _ := d.base.Client.Log()
	inForce := func() int {
		total := 0
		for _, r := range answered {
			total += d.base.Env.InForce(r.Action, r.EffectiveInput())
		}
		return total
	}
	d.clk.Exit()
	d.base.Net.Quiesce()
	waitStable(d.clk, 2*time.Second, inForce)
	d.clk.Enter()
	d.clk.Sleep(0)
	return inForce(), 0
}

// verdict fills the outcome's checker fields from the snapshotted
// histories. The x-ability family verifies every group on its own history
// (R2–R4; under the concurrent per-request relaxation for an open-loop
// completion log, which has no sequential form); behind the router the
// merged verdict adds the global exactly-once-routing audit. The baselines
// get the most charitable reading: each answered request checked as
// idempotent against the raw trace.
func (d *deployment) verdict(o *Outcome, l load) {
	for _, m := range d.members {
		logged, replies := m.session.Log()
		attempts := m.session.Attempts()
		o.Attempts += attempts
		if d.base != nil {
			o.XAble = len(logged) > 0
			for _, r := range logged {
				if !rawXAble(m.history, r) {
					o.XAble = false
				}
			}
			return
		}
		rep := verify.Check(verify.Run{
			Registry:       workload.Registry(),
			Requests:       logged,
			Replies:        replies,
			History:        m.history,
			SubmitAttempts: attempts,
			Concurrent:     l.open,
		})
		if d.router == nil {
			o.Report = rep
			o.XAble = rep.R3Strict || rep.R3Projected
			return
		}
		o.ShardReports = append(o.ShardReports, rep)
	}
	o.Shards = len(d.members)
	if l.open {
		o.RoutingExact = d.stationsOnOwners()
	} else {
		o.RoutingExact, _ = d.router.AuditRouting()
	}
	o.XAble = shard.Report{Shards: o.ShardReports, RoutingExact: o.RoutingExact}.XAble()
}

// execute is the run driver: every run — either deployment kind, either
// load, any armed plane — goes through this one sequence: build, hold the
// clock, arm the watchdog, apply the plan, drive the load, settle,
// snapshot while attached, stop, exit, quiesce, verdict. scratch is a
// sweep worker's recycled substrate (nil for single runs).
func execute(sc Scenario, seed int64, opts RunOptions, scratch *runScratch) Outcome {
	sc = sc.withDefaults().Materialize(seed)
	sc.Net.Record, sc.Net.Replay = opts.Record, opts.Replay
	if sc.Protocol == XAbility && sc.Shards > 0 {
		// The sharded runtime is outside the record/replay plane (see
		// Scenario.Shards): drop the hooks rather than hand one log to
		// several racing networks. It keeps the observability plane: its
		// groups share one clock, so one registry folds their deliveries
		// deterministically.
		sc.Net.Record, sc.Net.Replay = nil, nil
	}
	if opts.Obs != nil {
		sc.Net.Metrics, sc.Net.Trace = opts.Obs.Metrics, opts.Obs.Trace
	}
	l := load{reqs: sc.Requests, accounts: sc.Accounts}
	switch {
	case sc.Protocol == XAbility && sc.OpenLoop != nil:
		l = openLoad(sc, seed)
	case sc.Workload != nil:
		l.reqs = workload.Generate(*sc.Workload, seed)
	}
	d := deploy(sc, seed, l, scratch)
	defer d.stop()

	clk := d.clk
	clk.Enter()
	timedOut, disarm := watchdog(sc, d)
	if sc.Plan != nil {
		d.apply(sc.Plan)
	}
	start := clk.Now()
	replied := d.drive(l)
	disarm()
	simTime := clk.Now() - start
	settleRun(sc, d)
	// Every observation — send counters, the metrics registry, side-effect
	// audit, histories, storage and latency statistics — is snapshotted at
	// the settle horizon, a fixed virtual instant, while this goroutine is
	// still attached: it was just woken by the pump, so every protocol
	// goroutine of every group is blocked in a clock primitive and the
	// observed state cannot move. After Exit the clock free-runs, and
	// periodic activity (heartbeats, cleaner-paced cancellations) would
	// race the reads in wall time, making outcomes nondeterministic. (A
	// baseline's audit moves the instant before the reads that follow it.)
	o := Outcome{
		Scenario: sc.Name,
		Seed:     seed,
		Replied:  replied,
		Requests: len(l.reqs),
		SimTime:  simTime,
		Obs:      sc.Net.Metrics.Snapshot(), // nil-safe; nil when unobserved
		Schedule: sc.Net.Record,             // nil on a sharded run: nothing was recorded
	}
	for _, m := range d.members {
		o.Messages += m.net.TotalSent()
	}
	o.EffectsInForce, o.ReplayDuplicates = d.audit(l)
	var wstats wal.Stats
	var lats []time.Duration
	for i := range d.members {
		m := &d.members[i]
		m.history = m.observer.History()
		if d.router == nil {
			o.History = m.history
		} else {
			o.History = append(o.History, m.history...)
		}
		if m.group != nil {
			wstats = wstats.Plus(m.group.WALStats())
		}
		if m.station != nil {
			lats = append(lats, m.station.Latencies()...)
		}
	}
	// Stop while still attached: once this goroutine Exits, a live
	// deployment's periodic loops (cleaners, heartbeats) would free-run on
	// the virtual clock at CPU speed, racing the verdict computation for
	// the host's cores. Stopping first turns the post-Exit schedule into a
	// bounded exit cascade.
	d.stop()
	clk.Exit()
	for _, m := range d.members {
		m.net.Quiesce()
	}

	o.TimedOut = timedOut()
	o.WALAppends, o.WALSyncTime = wstats.Appends, wstats.SyncTime
	o.WALCompactions, o.WALLiveRecords = wstats.Compactions, wstats.LiveRecords
	o.Latency = workload.SummarizeLatencies(lats)
	if len(l.reqs) > 0 {
		// Executions and cancels of the first request's action.
		a := l.reqs[0].Action
		for _, e := range o.History {
			if e.Type == event.Start && e.Action == a {
				o.Executions++
			}
			if e.Type == event.Complete && e.Action == action.Cancel(a) {
				o.Cancels++
			}
		}
	}
	d.verdict(&o, l)
	return o
}

// watchdog arms the scenario's Deadline on a freshly started deployment:
// at the cap every cluster's network closes, unblocking every client
// await. The cap guards the submit phase only — settling and audit
// stabilization always terminate on their own — so the caller disarms it
// once the workload is through. Call with the clock held; fired reports
// whether the watchdog killed the run.
func watchdog(sc Scenario, d *deployment) (fired func() bool, disarm func()) {
	if sc.Deadline <= 0 {
		return func() bool { return false }, func() {}
	}
	var hit, done atomic.Bool
	d.clk.GoAfter(sc.Deadline, func() {
		if done.Load() {
			return
		}
		hit.Store(true)
		for _, m := range d.members {
			m.net.Close()
		}
	})
	return hit.Load, func() { done.Store(true) }
}

// settleRun keeps simulating past the last reply before verdicts are
// read: for the scenario's Settle, or 2ms past the plan's horizon if that
// is later, then in fixed steps while undoable transactions still await
// their decided commit or cancel. The protocol answers a client as soon
// as the outcome decision is fixed; executing that outcome can trail far
// behind a loaded executor (under open-loop overload, by a whole backlog).
// Snapshotting mid-drain would miss commit pairs the run will still
// produce and fail verification on a run that is exactly-once. The
// extension is deterministic — the pending count at a virtual instant is a
// function of the schedule — and bounded, so a pathological run still
// settles. (The baselines apply raw effects only: theirs is always zero.)
func settleRun(sc Scenario, d *deployment) {
	settle := sc.Settle
	if sc.Plan != nil {
		if h := sc.Plan.Horizon() + 2*time.Millisecond; h > settle {
			settle = h
		}
	}
	d.clk.Sleep(settle)
	for i := 0; i < 400; i++ {
		pending := 0
		for _, m := range d.members {
			pending += m.env.PendingOutcome()
		}
		if pending == 0 {
			return
		}
		d.clk.Sleep(500 * time.Microsecond)
	}
}

// auditEffects is the environment audit over the workload's distinct raw
// (action, input) pairs, both halves in one walk. effects sums the
// applications still in force: inForce already sums over every round tag
// of a pair, so a repeated request is counted once, not per submission.
// dups counts the pairs in force more often than the workload submitted
// them — each one a broken R2: some replica applied the effect again
// without cancelling the first. This is the restart plane's sharpest
// probe: a replica that replays its log wrongly (re-executing instead of
// re-folding) duplicates effects that the client-visible reply path never
// inspects. The bound is the pair's multiplicity, not 1: a workload that
// debits one account twice leaves two effects in force by design.
func auditEffects(reqs []action.Request, inForce func(action.Name, action.Value) int) (effects, dups int) {
	type pair struct {
		a  action.Name
		iv action.Value
	}
	submitted := make(map[pair]int, len(reqs))
	for _, r := range reqs {
		submitted[pair{r.Action, r.Input}]++
	}
	for _, r := range reqs {
		p := pair{r.Action, r.Input}
		n := submitted[p]
		if n == 0 {
			continue // pair already audited
		}
		submitted[p] = 0
		f := inForce(r.Action, r.Input)
		effects += f
		if f > n {
			dups++
		}
	}
	return effects, dups
}

// waitStable polls probe on the cluster clock until its value has not
// changed for 20ms of simulated time (or the deadline passes). On the
// virtual clock the whole wait costs only the work it overlaps with.
func waitStable(clk *vclock.Virtual, d time.Duration, probe func() int) {
	clk.Enter()
	defer clk.Exit()
	deadline := clk.Now() + d
	last, since := probe(), clk.Now()
	for clk.Now() < deadline {
		clk.Sleep(2 * time.Millisecond)
		cur := probe()
		if cur != last {
			last, since = cur, clk.Now()
			continue
		}
		if clk.Now()-since > 20*time.Millisecond {
			return
		}
	}
}

// DivergingHandler returns the non-deterministic raw handler baselines
// run: duplicated executions produce diverging outputs ("v1", "v2", …),
// which is exactly what the x-ability checker catches. Each call returns
// a handler with an independent counter.
func DivergingHandler() baseline.Handler {
	var mu sync.Mutex
	n := 0
	return func(req action.Request) action.Value {
		mu.Lock()
		defer mu.Unlock()
		n++
		return action.Value(fmt.Sprintf("v%d", n))
	}
}

// rawXAble checks a baseline history against the request's failure-free
// target, classifying the action as idempotent (the most charitable
// reading for the baseline).
func rawXAble(h event.History, req action.Request) bool {
	reg := action.NewRegistry()
	reg.MustRegister(req.Action, action.KindIdempotent)
	n := reduce.New(reg)
	spec, err := reduce.SpecFor(reg, req)
	if err != nil {
		return false
	}
	ok, _ := n.XAbleTo(h, []reduce.TargetSpec{spec})
	return ok
}
