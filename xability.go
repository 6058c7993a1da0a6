// Package xability is a Go implementation of X-Ability: A Theory of
// Replication (Frølund & Guerraoui, PODC 2000).
//
// X-ability (exactly-once-ability) is a correctness criterion for
// replicated services: a replicated service is x-able when the actions it
// executes — possibly several times, by several replicas — appear to their
// environment to have been executed exactly once. The theory covers
// non-deterministic actions and actions with external side effects (calls
// to third-party services), which classical criteria for replication do
// not.
//
// The package exposes three layers:
//
//   - The calculus: events, histories, patterns, the reduction relation ⇒,
//     the x-able predicate, and history signatures (§2–§3 of the paper),
//     as a mechanical checker — see NewChecker.
//   - The protocol: the paper's general asynchronous replication algorithm
//     (§5), which drifts at run time between a primary-backup flavor and
//     an active-replication flavor — see NewService.
//   - The specification: requirements R1–R4 for x-able services (§4),
//     checked against concrete runs — see CheckRun.
//   - The scenario layer: declarative fault plans (crashes, partitions,
//     delay storms, suspicion pulses on the virtual clock), a registry of
//     named adversarial scenarios, and a parallel seed-sweep runner that
//     reports verdict distributions — see NewPlan, RunScenario, Sweep.
//   - The debugging layer: schedule recording and replay (every run is
//     fully determined by its scenario, seed, and delivery log) and a
//     delta-debugging shrinker that turns a failing sweep seed into a
//     locally minimal counterexample trace — see RunScenarioTraced,
//     Shrink, MinTrace.
//   - The sharding plane: a keyspace partitioned across many
//     independently replicated groups behind one router (x-ability is
//     closed under composition, so the deployment is x-able end to end),
//     with a merged per-shard + exactly-once-routing verifier — see
//     NewShardedService.
//
// Quickstart:
//
//	reg := xability.NewRegistry()
//	reg.MustRegister("greet", xability.Idempotent)
//
//	svc := xability.NewService(xability.ServiceConfig{
//		Replicas: 3,
//		Registry: reg,
//		Setup: func(m *xability.Machine) {
//			m.HandleIdempotent("greet", func(ctx *xability.Ctx) xability.Value {
//				return "hello, " + ctx.Req.Input
//			})
//		},
//	})
//	defer svc.Close()
//
//	reply := svc.Call(xability.NewRequest("greet", "world"))
//
// See the examples/ directory for complete programs, DESIGN.md for the
// paper-to-code map, and EXPERIMENTS.md for the reproduction results.
package xability

import (
	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/env"
	"xability/internal/event"
	"xability/internal/reduce"
	"xability/internal/scenario"
	"xability/internal/schedule"
	"xability/internal/shard"
	"xability/internal/shrink"
	"xability/internal/sm"
	"xability/internal/trace"
	"xability/internal/vclock"
	"xability/internal/verify"
)

// Core vocabulary (§2.1, §3.1).
type (
	// Name identifies an action.
	Name = action.Name
	// Value is an action input or output value.
	Value = action.Value
	// Request pairs an action with an input value.
	Request = action.Request
	// Registry classifies actions as idempotent or undoable.
	Registry = action.Registry
	// Kind is an action's fault-tolerance class.
	Kind = action.Kind
)

// Action classes.
const (
	// Idempotent marks actions whose repeated execution has the side
	// effect of a single execution.
	Idempotent = action.KindIdempotent
	// Undoable marks actions that can be cancelled until committed.
	Undoable = action.KindUndoable
)

// Nil is the distinguished return value of cancel and commit actions.
const Nil = action.Nil

// Event calculus (§2.2–§2.3).
type (
	// Event is a start or completion event.
	Event = event.Event
	// History is a totally ordered event sequence.
	History = event.History
)

// S constructs a start event S(a, iv).
func S(a Name, iv Value) Event { return event.S(a, iv) }

// C constructs a completion event C(a, ov).
func C(a Name, ov Value) Event { return event.C(a, ov) }

// NewRegistry returns an empty action registry.
func NewRegistry() *Registry { return action.NewRegistry() }

// NewRequest builds a request.
func NewRequest(a Name, iv Value) Request { return action.NewRequest(a, iv) }

// Cancel and Commit derive the cancellation and commit action names of an
// undoable action (§3.1).
func Cancel(a Name) Name { return action.Cancel(a) }

// Commit derives the commit action name of an undoable action.
func Commit(a Name) Name { return action.Commit(a) }

// State machines (§2.1) and the environment.
type (
	// Machine is one replica's state machine.
	Machine = sm.Machine
	// Ctx is the execution context passed to action bodies.
	Ctx = sm.Ctx
	// Env is the third-party environment actions have side effects on.
	Env = env.Env
	// Observer is the run's event observer (§2.2).
	Observer = trace.Observer
)

// Checker is the mechanical x-ability checker: the reduction relation of
// Figure 4 plus the predicates built on it. A Checker keeps the scratch of
// the history it is working on from one check to the next, so it is not
// for concurrent use: give each goroutine its own (NewChecker is cheap).
type Checker = reduce.Normalizer

// TargetSpec describes the failure-free histories of one request (§3.2).
type TargetSpec = reduce.TargetSpec

// NewChecker builds a checker over a vocabulary.
func NewChecker(reg *Registry) *Checker { return reduce.New(reg) }

// SpecFor derives the failure-free target of a request.
func SpecFor(reg *Registry, req Request) (TargetSpec, error) { return reduce.SpecFor(reg, req) }

// EventsOf is the paper's eventsof function (eqs. 21–22).
func EventsOf(reg *Registry, req Request, ov Value) (History, error) {
	return reduce.EventsOf(reg, req, ov)
}

// Run verification (§4).
type (
	// Run captures one execution for verification.
	Run = verify.Run
	// Report is the R1–R4 verdict.
	Report = verify.Report
)

// CheckRun verifies requirements R2–R4 against a run.
func CheckRun(run Run) Report { return verify.Check(run) }

// The replication protocol (§5).
type (
	// ServiceConfig configures a replicated service.
	ServiceConfig = core.ClusterConfig
	// Service is a running replicated service with its client stub.
	Service struct{ cluster *core.Cluster }
	// Clock is the service's notion of time (internal/vclock): a virtual
	// discrete-event clock, so simulated delays cost CPU instead of wall
	// time and equal seeds reproduce equal schedules.
	Clock = *vclock.Virtual
)

// VirtualClock returns a fresh discrete-event clock — the default a service
// creates for itself when ServiceConfig.Net.Clock is nil.
func VirtualClock() Clock { return vclock.NewVirtual() }

// Consensus and detector substrate selectors.
const (
	// ConsensusLocal uses the linearizable objects the paper assumes.
	ConsensusLocal = core.ConsensusLocal
	// ConsensusCT uses the message-passing rotating-coordinator protocol.
	ConsensusCT = core.ConsensusCT
	// DetectorScripted uses test-controlled detectors.
	DetectorScripted = core.DetectorScripted
	// DetectorHeartbeat uses heartbeat-driven ◇P detectors.
	DetectorHeartbeat = core.DetectorHeartbeat
)

// NewService assembles and starts a replicated service on a simulated
// asynchronous network.
func NewService(cfg ServiceConfig) *Service {
	return &Service{cluster: core.NewCluster(cfg)}
}

// Call submits a request and retries until it succeeds (the client
// behavior R1 and R2 license).
func (s *Service) Call(req Request) Value {
	return s.cluster.Client.SubmitUntilSuccess(req)
}

// History returns the run's observed event history so far.
func (s *Service) History() History {
	s.cluster.Net.Quiesce()
	return s.cluster.Observer.History()
}

// Environment returns the service's third-party environment (for audits).
func (s *Service) Environment() *Env { return s.cluster.Env }

// Log returns the successfully submitted requests and replies.
func (s *Service) Log() ([]Request, []Value) { return s.cluster.Client.Log() }

// Attempts returns the number of submit attempts made.
func (s *Service) Attempts() int { return s.cluster.Client.Attempts() }

// Cluster exposes the underlying cluster for advanced scenarios (fault
// injection, per-replica access).
func (s *Service) Cluster() *core.Cluster { return s.cluster }

// The scenario layer (internal/scenario): declarative fault plans, a
// named-scenario registry, and the parallel seed-sweep runner.
type (
	// Scenario is one adversarial experiment, declaratively: protocol,
	// network, injected failures, fault plan, workload.
	Scenario = scenario.Scenario
	// Plan is a timed fault schedule (crashes, partitions, suspicion
	// pulses, delay storms) applied on the virtual clock.
	Plan = scenario.Plan
	// FaultTarget is the cluster surface a Plan drives.
	FaultTarget = scenario.Target
	// Outcome is the verdict of one scenario run.
	Outcome = scenario.Outcome
	// VerdictDistribution aggregates outcomes across a seed population.
	VerdictDistribution = scenario.VerdictDistribution
)

// Protocols a Scenario can deploy.
const (
	// ProtocolXAbility is the paper's protocol.
	ProtocolXAbility = scenario.XAbility
	// ProtocolPrimaryBackup is the [BMST93]-style baseline.
	ProtocolPrimaryBackup = scenario.PrimaryBackup
	// ProtocolActive is the [Sch93]-style baseline.
	ProtocolActive = scenario.Active
)

// NewPlan returns an empty fault plan; chain the *At builder methods to
// describe a schedule, then pass it to Service.Apply (or set it on a
// Scenario).
func NewPlan() *Plan { return scenario.NewPlan() }

// RegisterScenario adds a scenario to the process-wide registry; builtin
// scenarios (nice, crash-failover, partition, delay-storm, …) are
// pre-registered.
func RegisterScenario(sc Scenario) error { return scenario.Register(sc) }

// ScenarioByName looks a registered scenario up.
func ScenarioByName(name string) (Scenario, bool) { return scenario.Get(name) }

// ScenarioNames lists every registered scenario, sorted.
func ScenarioNames() []string { return scenario.Names() }

// RunScenario executes one scenario on one seed. Equal (scenario, seed)
// pairs yield equal outcomes.
func RunScenario(sc Scenario, seed int64) Outcome { return scenario.Execute(sc, seed) }

// Sweep executes a scenario once per seed across parallel workers (0
// selects GOMAXPROCS) and folds the outcomes into a deterministic verdict
// distribution. Runs are CPU-bound on the virtual clock, so populations of
// thousands are practical.
func Sweep(sc Scenario, seeds []int64, workers int) VerdictDistribution {
	return scenario.Sweep(sc, seeds, workers)
}

// SweepOptions tunes SweepWithOptions: worker count, the metrics rollup,
// failing-seed traces and a progress callback.
type SweepOptions = scenario.SweepOptions

// SweepWithOptions is Sweep with the full option set. Its failing seeds
// (VerdictDistribution.Failing) shrink into minimal counterexample traces
// through ShrinkSeeds.
func SweepWithOptions(sc Scenario, seeds []int64, opts SweepOptions) VerdictDistribution {
	return scenario.SweepWithOptions(sc, seeds, opts)
}

// SweepSeeds returns n consecutive seeds starting at base — the standard
// seed population for Sweep.
func SweepSeeds(base int64, n int) []int64 { return scenario.Seeds(base, n) }

// The debugging layer (internal/schedule, internal/shrink): schedule
// record/replay and the delta-debugging shrinker.
type (
	// ScheduleLog is the recorded delivery schedule of one run: one entry
	// per send, with the link, virtual-time deadline, and drop/delay
	// verdict. A run is fully determined by (scenario, seed, log).
	ScheduleLog = schedule.Log
	// ScheduleEntry is one delivery decision of a recorded schedule.
	ScheduleEntry = schedule.Entry
	// Replay re-executes a recorded schedule, optionally edited: an Edit
	// may suppress, delay, or reorder individual deliveries.
	Replay = schedule.Replay
	// MinTrace is a minimized counterexample: the fault plan and delivery
	// schedule of a locally minimal failing run, with a deterministic
	// human-readable rendering (Render) and a replay spec (Replay) that
	// reproduces the failure.
	MinTrace = shrink.MinTrace
	// ShrinkOptions tunes Shrink (step budget, failure predicate).
	ShrinkOptions = shrink.Options
)

// NewScheduleLog returns an empty schedule log for RunScenarioTraced.
func NewScheduleLog() *ScheduleLog { return schedule.NewLog() }

// RunScenarioTraced is RunScenario with the schedule plane armed: when
// record is non-nil the run's delivery schedule is logged into it; when
// replay is non-nil the run re-executes the given log instead of drawing
// delays from the seed. Either may be nil.
func RunScenarioTraced(sc Scenario, seed int64, record *ScheduleLog, replay *Replay) Outcome {
	return scenario.Run(sc, seed, scenario.RunOptions{Record: record, Replay: replay})
}

// Shrink delta-debugs the failing run of a scenario on one seed into a
// locally minimal counterexample trace: ddmin over the recorded delivery
// schedule plus greedy removal of fault-plan ops, re-running the scenario
// under replay after every edit and keeping the edits that preserve the
// failure. The result still fails when replayed, is 1-minimal (removing
// any single remaining delivery or fault op makes the failure disappear),
// and is deterministic across runs and hosts.
func Shrink(sc Scenario, seed int64, opt ShrinkOptions) (MinTrace, error) {
	return shrink.Shrink(sc, seed, opt)
}

// ShrinkSeeds shrinks a sweep's failing seeds, in order, and returns the
// minimal traces of the first three that yield one; a shrink cut by the
// step budget still yields its best-so-far trace.
func ShrinkSeeds(sc Scenario, seeds []int64, opt ShrinkOptions) []MinTrace {
	return shrink.Seeds(sc, seeds, opt)
}

// The sharding plane (internal/shard): a keyspace partitioned across many
// independently replicated x-able groups behind one facade. X-ability is
// closed under composition (§4's locality), so a deployment that routes
// every request to exactly one owning group is x-able end to end — the
// merged verifier checks both halves of that argument.
type (
	// ShardedConfig configures a sharded deployment: the shard count, the
	// ServiceConfig every group is built from (Group), and the per-shard
	// machine setup. The router partitions on the request's input.
	ShardedConfig = shard.Config
	// ShardedReport is the merged verdict: per-shard R2–R4 reports plus
	// the global exactly-once-routing audit.
	ShardedReport = shard.Report
	// Ring is the consistent-hash keyspace partitioner.
	Ring = shard.Ring
)

// NewRing returns the consistent-hash ring over the given shard count;
// vnodes of 0 selects the default virtual-node count. Rings are immutable
// and built once per shape.
func NewRing(shards, vnodes int) *Ring { return shard.NewRing(shards, vnodes) }

// ShardedService is a running sharded deployment with its routing client.
type ShardedService struct{ c *shard.Cluster }

// NewShardedService assembles and starts N replica groups — each an
// independent replicated service on its own simulated network — behind a
// keyspace router, all on one virtual clock.
func NewShardedService(cfg ShardedConfig) *ShardedService {
	return &ShardedService{c: shard.New(cfg)}
}

// Call routes the request to its owning group and submits it until it
// succeeds. Failover on crash or suspicion happens inside the owning
// group; the router never re-routes across groups.
func (s *ShardedService) Call(req Request) Value { return s.c.Router.Call(req) }

// CallAll routes a request batch and drives each group's subsequence
// concurrently on the shared virtual clock — the deployment's aggregate
// throughput mode. Replies come back in input order.
func (s *ShardedService) CallAll(reqs []Request) ([]Value, bool) {
	return s.c.Router.CallAll(reqs)
}

// Shards returns the deployment's group count; ShardOf the group index
// owning a request's key.
func (s *ShardedService) Shards() int             { return s.c.Shards() }
func (s *ShardedService) ShardOf(req Request) int { return s.c.Router.Owner(req) }

// History returns group shard's observed event history so far.
func (s *ShardedService) History(shardIdx int) History { return s.c.History(shardIdx) }

// Verify checks the whole deployment: each group's run against R2–R4 on
// its own history, plus the router's global exactly-once-routing audit.
func (s *ShardedService) Verify(reg *Registry) ShardedReport { return s.c.Verify(reg) }

// Apply schedules a fault plan against the deployment: unqualified ops
// strike every group at one virtual instant (correlated faults);
// Plan.OnShard re-addresses a sub-plan to a single group.
func (s *ShardedService) Apply(p *Plan) {
	groups := make([]FaultTarget, s.c.Shards())
	for i := range groups {
		groups[i] = s.c.Group(i)
	}
	p.Apply(s.c.Clock(), groups...)
}

// Clock returns the deployment's shared clock.
func (s *ShardedService) Clock() Clock { return s.c.Clock() }

// Cluster exposes the underlying runtime for advanced scenarios
// (per-group fault surfaces, the ring, the router's routing log).
func (s *ShardedService) Cluster() *shard.Cluster { return s.c }

// Close shuts every group down.
func (s *ShardedService) Close() { s.c.Stop() }

// Apply schedules a fault plan against this service, relative to the
// current virtual time. Simulated time moves only while a call waits on
// the service (Call, History, a Clock().Sleep), so ops applied before the
// workload land at their declared offsets from its start:
//
//	svc.Apply(xability.NewPlan().CrashAt(2*time.Millisecond, 0))
//	reply := svc.Call(req)
func (s *Service) Apply(p *Plan) { p.Apply(s.cluster.Clock(), s.cluster) }

// Clock returns the service's clock. Schedule fault injection on it
// (Clock().Go with Clock().Sleep) so scenarios land at fixed points of
// simulated time regardless of host speed. The clock advances only inside
// a wait: a service left idle between two calls stays at one virtual
// instant however much wall time passes, and a Clock().Sleep(d) runs it
// for exactly d. Calls on one service wait one at a time.
func (s *Service) Clock() Clock { return s.cluster.Clock() }

// Verify checks the service's run so far against R2–R4.
func (s *Service) Verify(reg *Registry) Report {
	reqs, replies := s.Log()
	return CheckRun(Run{
		Registry:       reg,
		Requests:       reqs,
		Replies:        replies,
		History:        s.History(),
		SubmitAttempts: s.Attempts(),
	})
}

// Close shuts the service down.
func (s *Service) Close() { s.cluster.Stop() }
