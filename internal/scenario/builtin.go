package scenario

import (
	"fmt"
	"time"

	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/simnet"
	"xability/internal/workload"
)

// The builtin scenarios. Each is a declarative value: the experiment
// tables (internal/exper), the CLIs (cmd/xsim, cmd/xbench), and the root
// package's public registry all draw from here, so a new adversarial
// workload is a new Scenario literal — no inline fault code anywhere.
func init() {
	r0 := simnet.ProcessID("replica-0")
	sides := [][]simnet.ProcessID{
		{"replica-0"},
		{"replica-1", "replica-2", "client"},
	}

	// nice: the failure-free run. Round 1's owner executes alone — the
	// primary-backup flavor of §5.1.
	MustRegister(Scenario{
		Name:        "nice",
		Description: "failure-free run; the round-1 owner executes alone",
	})

	// crash-failover: the schedule that breaks primary-backup (T1's
	// centerpiece). Injected failures stretch the execution so the owner
	// crashes mid-run; the cleaner neutralizes its round and takes over.
	MustRegister(Scenario{
		Name:        "crash-failover",
		Description: "owner crashes mid-execution; the cleaner takes over",
		Failures:    []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan:        NewPlan().CrashAt(2*time.Millisecond, 0),
	})

	// partition: the owner is cut off mid-execution — alive, executing,
	// but unreachable. The majority side suspects it, aborts its round,
	// and answers the client; after the heal the isolated owner learns the
	// abort and rolls its effect back. Runs over the message-passing
	// consensus substrate so the partition bites the agreement layer too
	// (the local-object substrate is shared memory and would tunnel
	// through the cut).
	MustRegister(Scenario{
		Name:        "partition",
		Description: "owner partitioned mid-execution; majority takes over, heal reconciles",
		Consensus:   core.ConsensusCT,
		Failures:    []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan: NewPlan().
			PartitionAt(time.Millisecond, sides...).
			SuspectAt(time.Millisecond, r0).
			ClientSuspectAt(time.Millisecond, r0).
			HealAt(8*time.Millisecond).
			UnsuspectAt(9*time.Millisecond, r0),
		Settle: 20 * time.Millisecond,
	})

	// delay-storm: a window where every delay is multiplied 24×, with two
	// false-suspicion pulses landing inside it — the drifting
	// primary/active schedule under heavily reordered, straggling
	// traffic.
	MustRegister(Scenario{
		Name:        "delay-storm",
		Description: "24× delay storm with false-suspicion pulses inside the window",
		Failures:    []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan: NewPlan().
			DelayStormAt(500*time.Microsecond, 4*time.Millisecond, 24).
			SuspectAt(time.Millisecond, r0).
			UnsuspectAt(1500*time.Microsecond, r0).
			SuspectAt(3500*time.Microsecond, r0).
			UnsuspectAt(4*time.Millisecond, r0),
		Settle: 20 * time.Millisecond,
	})

	// delay-storm-hb: the delay storm against *real* ◇P heartbeat
	// detectors instead of scripted suspicion pulses. The storm stretches
	// heartbeat gaps past the suspicion timeout, so false suspicions arise
	// endogenously (at replicas and client alike); each one doubles the
	// suspected peer's timeout, which is exactly the eventual-accuracy
	// path — once the timeout outgrows the storm's delays, accuracy
	// returns and the run must still verify x-able.
	MustRegister(Scenario{
		Name:              "delay-storm-hb",
		Description:       "24× delay storm against real heartbeat ◇P detectors; timeout doubling restores accuracy",
		Detector:          core.DetectorHeartbeat,
		HeartbeatInterval: 500 * time.Microsecond,
		Failures:          []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan:              NewPlan().DelayStormAt(500*time.Microsecond, 4*time.Millisecond, 24),
		Settle:            20 * time.Millisecond,
	})

	// partition-hb: the partition schedule against *real* ◇P heartbeat
	// detectors — no scripted suspicion anywhere. The cut starves
	// heartbeats from the isolated owner, so replicas and client suspect
	// it endogenously and the majority takes over; after the heal the
	// beats resume, accuracy returns (each false suspicion doubled the
	// peer's timeout), and the reconciled run must still verify x-able.
	// Runs over the message-passing consensus substrate so the cut bites
	// the agreement layer too.
	MustRegister(Scenario{
		Name:              "partition-hb",
		Description:       "owner partitioned under real heartbeat ◇P detectors; heal restores accuracy",
		Consensus:         core.ConsensusCT,
		Detector:          core.DetectorHeartbeat,
		HeartbeatInterval: 500 * time.Microsecond,
		Failures:          []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan: NewPlan().
			PartitionAt(time.Millisecond, sides...).
			HealAt(8 * time.Millisecond),
		Settle: 30 * time.Millisecond,
	})

	// The sharded rows: 4 replica groups behind the keyspace router
	// (internal/shard), a debit workload spread across enough accounts to
	// load every group, environment failures stretching executions so
	// timed faults land mid-run.
	shardWL := &workload.Spec{Requests: 12, Mix: workload.Mix{Debits: 1}, Accounts: 16}
	shardFailures := []Failure{{Action: "debit", Prob: 1, Budget: 6}}

	// shard-nice: the failure-free sharded run — the throughput baseline
	// and the composition claim's happy path: every group reduces on its
	// own, the router routes exactly once.
	MustRegister(Scenario{
		Name:        "shard-nice",
		Description: "4-shard failure-free run through the keyspace router",
		Shards:      4,
		Workload:    shardWL,
	})

	// shard-crash-failover: the correlated form of T1's centerpiece —
	// every group's round-1 owner crashes mid-execution at one virtual
	// instant; each group's cleaner neutralizes its round and takes over,
	// and the deployment must still verify exactly-once per shard and
	// exactly-once-routed globally.
	MustRegister(Scenario{
		Name:        "shard-crash-failover",
		Description: "every group's round-1 owner crashes mid-execution; cleaners take over per shard",
		Shards:      4,
		Workload:    shardWL,
		Failures:    shardFailures,
		Plan:        NewPlan().CrashAt(2*time.Millisecond, 0),
	})

	// shard-split-brain: two of four groups lose their owner behind a cut
	// — alive, executing, unreachable — while scripted suspicion makes
	// their majority sides move on; the other two groups keep serving
	// undisturbed. Heals reconcile the isolated rounds. Runs over the
	// message-passing substrate so the cut bites the agreement layer.
	splitPulse := NewPlan().
		SuspectAt(time.Millisecond, r0).
		ClientSuspectAt(time.Millisecond, r0).
		UnsuspectAt(9*time.Millisecond, r0)
	splitCut := NewPlan().PartitionAt(time.Millisecond, sides...)
	splitHeal := NewPlan().HealAt(8 * time.Millisecond)
	MustRegister(Scenario{
		Name:        "shard-split-brain",
		Description: "owners of 2 of 4 groups partitioned mid-execution; majorities take over, heals reconcile",
		Shards:      4,
		Consensus:   core.ConsensusCT,
		Workload:    shardWL,
		Failures:    shardFailures,
		Plan: NewPlan().
			OnShard(0, splitCut).
			OnShard(2, splitCut).
			OnShard(0, splitPulse).
			OnShard(2, splitPulse).
			OnShard(0, splitHeal).
			OnShard(2, splitHeal),
		Settle: 20 * time.Millisecond,
	})

	// shard-storm: a correlated 24× delay storm hitting 2 of 4 groups,
	// with false-suspicion pulses landing inside the stormed groups — the
	// drifting primary/active schedule, k-of-N.
	stormPulse := NewPlan().
		SuspectAt(time.Millisecond, r0).
		UnsuspectAt(1500*time.Microsecond, r0).
		SuspectAt(3500*time.Microsecond, r0).
		UnsuspectAt(4*time.Millisecond, r0)
	storm := NewPlan().DelayStormAt(500*time.Microsecond, 4*time.Millisecond, 24)
	MustRegister(Scenario{
		Name:        "shard-storm",
		Description: "24× delay storm over 2 of 4 groups with suspicion pulses inside the window",
		Shards:      4,
		Workload:    shardWL,
		Failures:    shardFailures,
		Plan: NewPlan().
			OnShard(1, storm).
			OnShard(3, storm).
			OnShard(1, stormPulse).
			OnShard(3, stormPulse),
		Settle: 20 * time.Millisecond,
	})

	// restart-minority: the durable-state plane's centerpiece — the
	// round-1 owner crashes mid-execution (its CT acceptor vote and any
	// applied effect already on stable storage), the cleaner side takes
	// over, and the crashed replica later restarts from its log. The
	// restarted replica must re-fold — not re-execute — its effect log
	// (the duplicate-replay audit checks exactly that), and agreement
	// must still hold with the revived acceptor back in the quorum.
	MustRegister(Scenario{
		Name:        "restart-minority",
		Description: "owner crashes mid-execution, then restarts from stable storage; effects replay exactly once",
		Consensus:   core.ConsensusCT,
		Durable:     true,
		Failures:    []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan: NewPlan().
			CrashAt(2*time.Millisecond, 0).
			RestartAt(6*time.Millisecond, 0).
			UnsuspectAt(7*time.Millisecond, r0),
		Settle: 20 * time.Millisecond,
	})

	// restart-random: the generator's crash→restart schedule class —
	// every seed draws crashes that later revive from stable storage, on
	// top of the usual pulses, storms, and cuts.
	MustRegister(Scenario{
		Name:         "restart-random",
		Description:  "seeded random fault schedules with crash→restart pairs over stable storage",
		Consensus:    core.ConsensusCT,
		Durable:      true,
		Failures:     []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		RandomFaults: &RandomOptions{Ops: 4, Outage: RestartMinority},
		Settle:       20 * time.Millisecond,
	})

	// restart-majority: two of three replicas crash — a quorum is gone and
	// agreement stalls — then both restart from stable storage. The one
	// survivor bridges the outage in memory; the revived acceptors must
	// rejoin with their logged votes intact so the post-restart quorum
	// cannot contradict anything decided before the crashes.
	MustRegister(Scenario{
		Name:        "restart-majority",
		Description: "a majority crashes mid-execution and restarts from stable storage; one survivor bridges the outage",
		Consensus:   core.ConsensusCT,
		Durable:     true,
		Failures:    []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan: NewPlan().
			CrashAt(2*time.Millisecond, 0).
			CrashAt(2500*time.Microsecond, 1).
			RestartAt(6*time.Millisecond, 0).
			RestartAt(7*time.Millisecond, 1),
		Settle: 25 * time.Millisecond,
	})

	// power-cycle: the total-loss schedule — every replica crashes at one
	// virtual instant, so for a window the deployment exists only as bytes
	// on stable storage. Staggered restarts bring the replicas back one by
	// one; every decision, acceptor vote, and applied effect must come
	// back from the logs alone (no live replica bridged the outage), and
	// the client's retries across the blackout must still land
	// exactly-once.
	powerCycle := NewPlan().
		CrashAt(2*time.Millisecond, 0).
		CrashAt(2*time.Millisecond, 1).
		CrashAt(2*time.Millisecond, 2).
		RestartAt(5*time.Millisecond, 2).
		RestartAt(6*time.Millisecond, 1).
		RestartAt(7*time.Millisecond, 0)
	MustRegister(Scenario{
		Name:        "power-cycle",
		Description: "all replicas crash simultaneously and restart staggered from stable storage; no live state bridges the outage",
		Consensus:   core.ConsensusCT,
		Durable:     true,
		Failures:    []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan:        powerCycle,
		Settle:      25 * time.Millisecond,
	})

	// restart-random-majority: the generator with the minority guard
	// lifted to all-but-one — drawn schedules may take down a quorum as
	// long as every crash pairs with a restart inside the horizon.
	MustRegister(Scenario{
		Name:         "restart-random-majority",
		Description:  "seeded random schedules that may crash a majority; paired restarts are the liveness guard",
		Consensus:    core.ConsensusCT,
		Durable:      true,
		Failures:     []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		RandomFaults: &RandomOptions{Ops: 5, Outage: RestartMajority},
		Settle:       25 * time.Millisecond,
	})

	// restart-random-total: the generator with the guard lifted entirely —
	// a drawn schedule may power-cycle the whole deployment.
	MustRegister(Scenario{
		Name:         "restart-random-total",
		Description:  "seeded random schedules that may crash every replica; recovery runs from the logs alone",
		Consensus:    core.ConsensusCT,
		Durable:      true,
		Failures:     []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		RandomFaults: &RandomOptions{Ops: 6, Outage: RestartAll},
		Settle:       25 * time.Millisecond,
	})

	// random-faults: every seed draws its own fault schedule from the
	// generator (Plan.Random) — crashes, pulses, cuts, storms at random
	// instants — so a sweep covers a different adversarial schedule per
	// seed instead of one schedule per scenario. The generator respects
	// the protocol's liveness assumptions (minority crashes, healed cuts,
	// recovered suspicions), so a failing seed here is a protocol bug.
	MustRegister(Scenario{
		Name:         "random-faults",
		Description:  "seeded random fault schedule drawn fresh from each run's seed",
		Consensus:    core.ConsensusCT,
		Failures:     []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		RandomFaults: &RandomOptions{Ops: 4},
		Settle:       20 * time.Millisecond,
	})

	// shard-random: the sharded version — group-scoped random schedules
	// against the 4-shard deployment.
	MustRegister(Scenario{
		Name:         "shard-random",
		Description:  "4-shard deployment under seeded random group-scoped fault schedules",
		Shards:       4,
		Workload:     shardWL,
		Failures:     shardFailures,
		RandomFaults: &RandomOptions{Ops: 6},
		Settle:       20 * time.Millisecond,
	})

	// shard-restart-minority: the durable plane composed with sharding —
	// one group's round-1 owner crashes mid-execution and later restarts
	// from that group's own store, while the other three groups keep
	// serving undisturbed. Pins that per-group stable storage is really
	// per-group: the restarted replica recovers exactly its shard's state,
	// and the router's exactly-once audit still closes globally.
	MustRegister(Scenario{
		Name:        "shard-restart-minority",
		Description: "one group's owner crashes then restarts from its group's stable storage; other shards undisturbed",
		Shards:      4,
		Consensus:   core.ConsensusCT,
		Durable:     true,
		Workload:    shardWL,
		Failures:    shardFailures,
		Plan: NewPlan().OnShard(1, NewPlan().
			CrashAt(2*time.Millisecond, 0).
			RestartAt(6*time.Millisecond, 0)),
		Settle: 25 * time.Millisecond,
	})

	// shard-power-cycle: a whole group blacks out — every replica of
	// shard 2 crashes at one instant, so for a window that slice of the
	// keyspace exists only on stable storage — then restarts staggered.
	// The other groups serve their keys throughout (graceful degradation,
	// not cluster-wide stall), and the revived group must answer its
	// clients' retries exactly-once from the logs alone.
	MustRegister(Scenario{
		Name:        "shard-power-cycle",
		Description: "every replica of one group crashes simultaneously and restarts staggered; other shards serve throughout",
		Shards:      4,
		Consensus:   core.ConsensusCT,
		Durable:     true,
		Workload:    shardWL,
		Failures:    shardFailures,
		Plan:        NewPlan().OnShard(2, powerCycle),
		Settle:      25 * time.Millisecond,
	})

	// shard-restart-random: the generator's group-scoped crash→restart
	// class with the guard lifted entirely — a drawn schedule may
	// power-cycle whole groups (each on its own store), on top of the
	// usual group-scoped pulses, storms, and cuts.
	MustRegister(Scenario{
		Name:         "shard-restart-random",
		Description:  "4-shard deployment under random group-scoped schedules that may power-cycle whole groups",
		Shards:       4,
		Consensus:    core.ConsensusCT,
		Durable:      true,
		Workload:     shardWL,
		Failures:     shardFailures,
		RandomFaults: &RandomOptions{Ops: 6, Outage: RestartAll},
		Settle:       25 * time.Millisecond,
	})

	// The throughput-plane rows: the batched/pipelined slot protocol
	// (internal/core, batch.go) under the same adversarial schedules as
	// the per-request plane, plus open-loop arrival scenarios where
	// offered load is fixed by the spec rather than by service latency.
	// The closed-loop batch-* scenarios keep the strict verifier (one
	// sequential session); the open-loop ones verify under the concurrent
	// per-request relaxation. Costs give each replica finite virtual
	// capacity — without them the simulated cluster never saturates and
	// batching has nothing to amortize.
	batchCfg := core.BatchConfig{Enabled: true, MaxSize: 8, Window: 100 * time.Microsecond, Pipeline: 4}
	batchWL := &workload.Spec{Requests: 8, Accounts: 4}

	MustRegister(Scenario{
		Name:        "batch-nice",
		Description: "failure-free multi-request run on the batched/pipelined slot plane",
		Batch:       batchCfg,
		Accounts:    4,
		Workload:    batchWL,
	})

	// batch-crash-failover: the T1 centerpiece against the slot plane —
	// the slot owner crashes mid-batch and the slot cleaner must abort its
	// round and re-propose the same batch, keeping batch-order effects
	// exactly-once.
	MustRegister(Scenario{
		Name:        "batch-crash-failover",
		Description: "slot owner crashes mid-batch; the slot cleaner re-proposes and takes over",
		Batch:       batchCfg,
		Accounts:    4,
		Workload:    batchWL,
		Failures:    []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan:        NewPlan().CrashAt(2*time.Millisecond, 0),
	})

	// batch-storm-hb: delay-storm-hb's endogenous false suspicions against
	// the slot plane — concurrent slot cleaners racing live slot owners.
	MustRegister(Scenario{
		Name:              "batch-storm-hb",
		Description:       "24× delay storm under heartbeat ◇P detectors on the batched slot plane",
		Batch:             batchCfg,
		Detector:          core.DetectorHeartbeat,
		HeartbeatInterval: 500 * time.Microsecond,
		Accounts:          4,
		Workload:          batchWL,
		Failures:          []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan:              NewPlan().DelayStormAt(500*time.Microsecond, 4*time.Millisecond, 24),
		Settle:            20 * time.Millisecond,
	})

	olCosts := core.CostModel{Consensus: 20 * time.Microsecond, Exec: 5 * time.Microsecond}
	olSpec := workload.OpenLoopSpec{Clients: 200, Rate: 20_000, Duration: 5 * time.Millisecond, Accounts: 8}

	// open-loop-nice: the unbatched saturation baseline — arrivals at a
	// fixed offered rate against per-request agreement, every request
	// paying the full consensus cost alone.
	MustRegister(Scenario{
		Name:        "open-loop-nice",
		Description: "open-loop arrivals at fixed offered rate; per-request protocol with costed replicas",
		Costs:       olCosts,
		OpenLoop:    &olSpec,
	})

	// open-loop-batch: the same offered load against the slot plane —
	// concurrent arrivals coalesce into batches, amortizing the consensus
	// cost across batch members.
	MustRegister(Scenario{
		Name:        "open-loop-batch",
		Description: "open-loop arrivals on the batched/pipelined slot plane with costed replicas",
		Costs:       olCosts,
		Batch:       core.BatchConfig{Enabled: true, MaxSize: 16, Window: 100 * time.Microsecond, Pipeline: 8},
		OpenLoop:    &olSpec,
	})

	// shard-open-loop: the composed form — Zipf-skewed keys over 4 groups,
	// each group batching its own arrival stream through its own station.
	MustRegister(Scenario{
		Name:        "shard-open-loop",
		Description: "4-shard open-loop run, Zipf-keyed arrivals through per-group stations",
		Shards:      4,
		Costs:       olCosts,
		Batch:       core.BatchConfig{Enabled: true, MaxSize: 16, Window: 100 * time.Microsecond, Pipeline: 8},
		OpenLoop:    &workload.OpenLoopSpec{Clients: 200, Rate: 20_000, Duration: 5 * time.Millisecond, Accounts: 16, ZipfS: 1.2},
	})

	// suspect: a permanent false suspicion of the round-1 owner makes a
	// second replica execute concurrently (the active flavor) over a
	// non-deterministic idempotent action.
	MustRegister(Scenario{
		Name:        "suspect",
		Description: "false suspicion forces concurrent execution of a token request",
		Failures:    []Failure{{Action: "token", Prob: 1, Budget: 5}},
		Plan:        NewPlan().SuspectAt(2*time.Millisecond, r0),
		Requests:    []action.Request{action.NewRequest("token", "t")},
	})

	// failures: no faults beyond the environment's own injected action
	// failures; execute-until-success absorbs them.
	MustRegister(Scenario{
		Name:        "failures",
		Description: "environment injects action failures; execute-until-success retries",
		Failures:    []Failure{{Action: "debit", Prob: 0.7, Budget: 6, AfterProb: 0.5}},
	})

	// sequence: a seeded multi-request session mixing reads, tokens, and
	// debits.
	MustRegister(Scenario{
		Name:        "sequence",
		Description: "multi-request session mixing reads, tokens, and debits",
		Accounts:    4,
		Workload:    &workload.Spec{Requests: 6, Accounts: 2},
	})

	// spectrum-N (T2's rows): N false-suspicion pulses of growing spacing
	// drag the run from the primary-backup flavor (one executor) toward
	// active replication (concurrent executors), over an undoable action.
	for pulses := 0; pulses <= 3; pulses++ {
		sc := Scenario{
			Name:        fmt.Sprintf("spectrum-%d", pulses),
			Label:       fmt.Sprintf("spectrum/%d-pulses", pulses),
			Description: fmt.Sprintf("%d false-suspicion pulses over an undoable request", pulses),
			Opening:     1000,
		}
		if pulses > 0 {
			sc.Failures = []Failure{{Action: "debit", Prob: 1, Budget: 3 * pulses}}
			plan := NewPlan()
			var t time.Duration
			for i := 0; i < pulses; i++ {
				t += time.Duration(1+i) * time.Millisecond
				plan.SuspectAt(t, r0)
				t += 500 * time.Microsecond
				plan.UnsuspectAt(t, r0)
			}
			sc.Plan = plan
		}
		MustRegister(sc)
	}

	// Baseline rows of T1.
	MustRegister(Scenario{
		Name:        "pb-nice",
		Label:       "nice",
		Description: "primary-backup, failure-free run",
		Protocol:    PrimaryBackup,
	})
	MustRegister(Scenario{
		Name:        "pb-crash-failover",
		Label:       "crash-failover",
		Description: "primary-backup; the primary crashes in the duplication window",
		Protocol:    PrimaryBackup,
		SyncDelay:   4 * time.Millisecond,
		Plan:        NewPlan().CrashAt(2*time.Millisecond, 0),
	})
	MustRegister(Scenario{
		Name:        "active-nice",
		Label:       "nice",
		Description: "active replication; every replica executes every request",
		Protocol:    Active,
	})
}
