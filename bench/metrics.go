package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median by which an end-to-end metric
// may get worse before a change counts as a regression; per-layer metrics
// carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, on every workload. One
// operation is a seed executed and checked (the sweeps), a client request
// simulated and verified (saturation) or a history event checked (check).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer numbers of a traced run, grouped by the
// repository package they measure. Sources: probes (tight loops around one
// public call), the observed pass (obs counters), the profile pass
// (cpu.*), and the workload's own model outputs in virtual time.
var perLayer = []metricDef{
	// vclock: the virtual clock's primitives, host time per call.
	{"vclock.sleep_ns", "ns", "lower", 0},
	{"vclock.sleep_allocs", "count", "lower", 0},
	{"vclock.goafter_ns", "ns", "lower", 0},
	{"vclock.go_spawn_ns", "ns", "lower", 0},
	{"vclock.cond_wake_ns", "ns", "lower", 0},
	{"vclock.sleep_1k_pending_ns", "ns", "lower", 0},
	// simnet: the simulated network.
	{"simnet.sendrecv_ns", "ns", "lower", 0},
	{"simnet.sendrecv_allocs", "count", "lower", 0},
	{"simnet.broadcast6_ns", "ns", "lower", 0},
	{"simnet.new_ns", "ns", "lower", 0},
	{"simnet.reset_ns", "ns", "lower", 0},
	{"simnet.delivered_share", "share", "higher", 0},
	// fd: heartbeat failure detectors.
	{"fd.heartbeat_ns_per_vms", "ns", "lower", 0},
	{"fd.suspicions_per_op", "count", "lower", 0},
	{"fd.unsuspicions_per_op", "count", "lower", 0},
	// consensus: the assumed local objects and the CT protocol.
	{"consensus.local_propose_ns", "ns", "lower", 0},
	{"consensus.ct_decide_ns", "ns", "lower", 0},
	{"consensus.ct_decide_vus", "vus", "lower", 0},
	{"consensus.ct_msgs_per_decide", "count", "lower", 0},
	{"consensus.rounds_per_decision", "count", "lower", 0},
	{"consensus.decisions_per_proposal", "count", "higher", 0},
	{"consensus.retransmits_per_op", "count", "lower", 0},
	// core: the replication protocol.
	{"core.newcluster_ns", "ns", "lower", 0},
	{"core.newcluster_allocs", "count", "lower", 0},
	{"core.submit_local_ns", "ns", "lower", 0},
	{"core.submit_ct_ns", "ns", "lower", 0},
	{"core.closed_ops_per_vsec", "1/vs", "higher", 0},
	{"core.msgs_per_req", "count", "lower", 0},
	{"core.batch_size_mean", "count", "higher", 0},
	{"core.pipeline_depth_max", "count", "higher", 0},
	{"core.replies_per_submit", "count", "higher", 0},
	{"core.failovers_per_op", "count", "lower", 0},
	{"core.takeovers_per_op", "count", "lower", 0},
	{"core.recovery_vus_p50", "vus", "lower", 0},
	{"core.recovery_vus_p99", "vus", "lower", 0},
	{"core.unbatched.ops_per_vsec", "1/vs", "higher", 0},
	{"core.unbatched.max_rate_slo", "1/vs", "higher", 0},
	{"core.single_replica.ops_per_vsec", "1/vs", "higher", 0},
	// model: what the simulated service sustains, in virtual time
	// (batched+pipelined; saturation only).
	{"model.ops_per_vsec", "1/vs", "higher", 0},
	{"model.vlat_p50_us", "vus", "lower", 0},
	{"model.vlat_p99_us", "vus", "lower", 0},
	{"model.vlat_samples", "count", "higher", 0},
	{"model.max_rate_slo", "1/vs", "higher", 0},
	// wal: simulated stable storage.
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.append_allocs", "count", "lower", 0},
	{"wal.compact_ns_per_rec", "ns", "lower", 0},
	{"wal.replay_ns_per_rec", "ns", "lower", 0},
	{"wal.appends_per_op", "count", "lower", 0},
	{"wal.compactions_per_op", "count", "lower", 0},
	// shard: the keyspace router and the 4-group deployment.
	{"shard.owner_ns", "ns", "lower", 0},
	{"shard.sharded4.ops_per_vsec", "1/vs", "higher", 0},
	{"shard.sharded4.reqs_per_s", "1/s", "higher", 0},
	{"shard.scaling_1to4", "ratio", "higher", 0},
	// sm / env / workload: per-seed actors and input generators.
	{"sm.new_ns", "ns", "lower", 0},
	{"env.new_ns", "ns", "lower", 0},
	{"workload.generate_ns_per_req", "ns", "lower", 0},
	{"workload.openloop_ns_per_arrival", "ns", "lower", 0},
	// verify / reduce: the checker.
	{"verify.ns_per_event.dup1.n640", "ns", "lower", 0},
	{"verify.ns_per_event.dup1.n6400", "ns", "lower", 0},
	{"verify.ns_per_event.dup3.n480", "ns", "lower", 0},
	{"verify.ns_per_event.dup3.n1920", "ns", "lower", 0},
	{"verify.growth_exp.dup1", "exp", "lower", 0},
	{"verify.growth_exp.dup3", "exp", "lower", 0},
	{"verify.concurrent_ns_per_event", "ns", "lower", 0},
	// scenario: the run driver, per scenario and per workload.
	{"scenario.nice.seeds_per_s", "1/s", "higher", 0},
	{"scenario.crash-failover.seeds_per_s", "1/s", "higher", 0},
	{"scenario.sequence.seeds_per_s", "1/s", "higher", 0},
	{"scenario.delay-storm-hb.seeds_per_s", "1/s", "higher", 0},
	{"scenario.partition-hb.seeds_per_s", "1/s", "higher", 0},
	{"scenario.power-cycle.seeds_per_s", "1/s", "higher", 0},
	{"scenario.shard-power-cycle.seeds_per_s", "1/s", "higher", 0},
	{"scenario.fresh_vs_recycled", "ratio", "lower", 0},
	{"scenario.parallel_speedup", "ratio", "higher", 0},
	{"scenario.parallel.nice.speedup", "ratio", "higher", 0},
	{"scenario.parallel.crash-failover.speedup", "ratio", "higher", 0},
	{"scenario.parallel.partition.speedup", "ratio", "higher", 0},
	{"scenario.parallel.power-cycle.speedup", "ratio", "higher", 0},
	{"scenario.parallel.dist_mismatch", "count", "lower", 0},
	{"scenario.op_p50_us", "us", "lower", 0},
	{"scenario.op_p99_us", "us", "lower", 0},
	{"scenario.bytes_per_op", "B", "lower", 0},
	{"scenario.msgs_per_s", "1/s", "higher", 0},
	{"scenario.gc_cpu_share", "share", "lower", 0},
	{"scenario.peak_rss_mb", "MB", "lower", 0},
	{"scenario.dist_mismatch", "count", "lower", 0},
	{"fail_share", "share", "lower", 0},
	// obs: what arming the observability plane costs.
	{"obs.overhead_share", "share", "lower", 0},
	// cpu: where an operation's host CPU goes, by leaf frame of each
	// profile sample.
	{"cpu.rng", "share", "lower", 0},
	{"cpu.vclock", "share", "lower", 0},
	{"cpu.simnet", "share", "lower", 0},
	{"cpu.fd", "share", "lower", 0},
	{"cpu.consensus", "share", "lower", 0},
	{"cpu.core", "share", "lower", 0},
	{"cpu.wal", "share", "lower", 0},
	{"cpu.checker", "share", "lower", 0},
	{"cpu.gc", "share", "lower", 0},
	{"cpu.sched", "share", "lower", 0},
	{"cpu.other", "share", "lower", 0},
}

// metricSet collects one run's values and refuses names the tables above
// do not declare, so output and BENCHMARK.json cannot drift apart.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), values: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared in metrics.go", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // JSON has no spelling for these
	}
	m.values[name] = v
}

// missing lists declared names that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (m *metricSet) result(correct bool, attempted, failed int) result {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(m.values))}
	for name, v := range m.values {
		r.Metrics[name] = metricValue{Value: v, Unit: m.defs[name].Unit}
	}
	return r
}

// manifest renders BENCHMARK.json from the tables, the one place the
// names, units and bounds are written down.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
