package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
)

// A run sets its workload up at least minSetups times and until
// setupBudget seconds have gone into it (at most maxSetups times);
// setup_s is the median, so neither a cold first set-up nor the jitter of
// a millisecond-sized one decides it.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 0.5

	// plainRounds is how many untraced rounds open a traced run.
	plainRounds = 3
)

// runOpts are the knobs of one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	// smoke shrinks everything so that the whole benchmark runs in
	// seconds: the path the tests take.
	smoke  bool
	outDir string
}

// scale divides every frozen count.
func (o runOpts) scale() int {
	if o.smoke {
		return 50
	}
	return 1
}

// probeSeconds is the length of each layer probe of a traced run, and
// probeShrink the divisor of the sizes of the probes whose one call is long.
func (o runOpts) probeSeconds() float64 {
	if o.smoke {
		return 0.002
	}
	return 0.12
}

func (o runOpts) probeShrink() int {
	if o.smoke {
		return 8
	}
	return 1
}

// profileSeconds is how long the profile pass samples.
func (o runOpts) profileSeconds() float64 {
	if o.smoke {
		return 0.2
	}
	return 2.5
}

// detail is what a run knows beyond the contract's result line; it is
// printed as the line before it, for the full-run driver and for people.
type detail struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Block       int64     `json:"block"`
	Op          string    `json:"op"`
	Rounds      int       `json:"rounds"`
	OpsPerRound int       `json:"ops_per_round"`
	Fingerprint string    `json:"fingerprint"`
	Mismatch    int       `json:"dist_mismatch"`
	Failing     []string  `json:"failing,omitempty"`
	SetupS      []float64 `json:"setup_s,omitempty"`
	OpsPerS     []float64 `json:"ops_per_s,omitempty"`
	AllocsPerOp []float64 `json:"allocs_per_op,omitempty"`
}

func header(w *workloadDef, o runOpts, trace int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# xability bench: workload %s, seed %d (input block %d of %d), %gs, trace %d\n",
		w.Name, o.seed, blockOf(o.seed), seedBlocks, o.seconds, trace)
	b.WriteString("# two clocks: host time measures the simulator; virtual time (vus, 1/vs) is the model's output.\n")
	b.WriteString("# model unvalidated: the repository holds no hardware reference, so no error figure is given.\n")
	b.WriteString("# injected: message delay uniform 0-200us; virtual CPU 20us/proposal + 5us/execution on saturation only; WAL sync tariff 0.\n")
	fmt.Fprintf(&b, "# load: closed loop from one process, GOMAXPROCS=1, 1 sweep worker; one op = one %s; counts /%d.\n", w.Op, o.scale())
	switch {
	case len(w.Parts) > 0:
		var parts []string
		for _, p := range w.Parts {
			parts = append(parts, fmt.Sprintf("%s x%d", p.Scenario, scaled(p.Seeds, o.scale())))
		}
		fmt.Fprintf(&b, "# round: %s\n", strings.Join(parts, ", "))
	case w.Name == "saturation":
		fmt.Fprintf(&b, "# round: open-loop Poisson, 400 clients, %v virtual window, 16 accounts, Zipf 1.2, ladder %v /vsec; configs unbatched (to 80k), batched+pipelined (16, 100us, depth 8), sharded4, single-replica (80k)\n",
			satWindow, satLadder)
	default:
		fmt.Fprintf(&b, "# round: synthetic histories (requests, dup) x n = %v, plus %d non-x-able\n", checkCorpus, badHistories)
	}
	return b.String()
}

// measure is the untraced run: it sets the workload up, repeats the
// round of fixed work until seconds have passed, and reports medians.
func measure(w *workloadDef, o runOpts) (*metricSet, detail, result) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := detail{Workload: w.Name, Seed: o.seed, Block: blockOf(o.seed), Op: w.Op}

	var r runner
	for spent := 0.0; len(d.SetupS) < minSetups || (spent < setupBudget && len(d.SetupS) < maxSetups); {
		t := wallNow()
		r = w.prepare(w, o.seed, o.scale())
		d.SetupS = append(d.SetupS, since(t))
		spent += d.SetupS[len(d.SetupS)-1]
	}

	attempted, failed := 0, 0
	var first uint64
	start := wallNow()
	for {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := wallNow()
		out := r.round(pass{})
		wall := since(t)
		runtime.ReadMemStats(&after)

		d.OpsPerS = append(d.OpsPerS, float64(out.ops)/wall)
		d.AllocsPerOp = append(d.AllocsPerOp, float64(after.Mallocs-before.Mallocs)/float64(out.ops))
		attempted += out.attempted
		failed += out.failed
		if d.Rounds == 0 {
			first = out.digest
			d.OpsPerRound = out.ops
			d.Failing = out.failing
		} else if out.digest != first {
			d.Mismatch++
		}
		d.Rounds++
		if since(start) >= o.seconds {
			break
		}
	}
	d.Fingerprint = fmt.Sprintf("%016x", first)

	m := newMetricSet(endToEnd)
	m.set("ops_per_s", median(d.OpsPerS))
	m.set("allocs_per_op", median(d.AllocsPerOp))
	m.set("setup_s", median(d.SetupS))
	return m, d, m.result(failed == 0, attempted, failed)
}

// gcCPU reads the runtime's own CPU accounting: seconds in GC, and total.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// traced is the traced run: the workload's round three times plain, once
// with spans and completion intervals, once observed, then under the CPU
// profiler; then every layer probe. It returns the per-layer metrics and
// writes the spans to outDir.
func traced(w *workloadDef, o runOpts) (*metricSet, detail, result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := detail{Workload: w.Name, Seed: o.seed, Block: blockOf(o.seed), Op: w.Op}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, d, result{}, err
	}
	m := newMetricSet(perLayer)
	spans := newSpanLog()
	root := spans.begin("run "+w.Name, -1)

	id := spans.begin("setup", root)
	r := w.prepare(w, o.seed, o.scale())
	spans.end(id)

	// Plain passes: the reference for rates, memory and GC share. The
	// first round after a set-up runs on a heap still growing, so the
	// round with the median wall time of three stands for all.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPU()
	plains := make([]roundOut, plainRounds)
	walls := make([]float64, plainRounds)
	for i := range plains {
		id = spans.begin("pass plain", root)
		t := wallNow()
		plains[i] = r.round(pass{})
		walls[i] = since(t)
		spans.end(id)
	}
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&after)
	plain, plainWall := plains[0], median(walls)
	for i, wall := range walls {
		if wall == plainWall {
			plain = plains[i]
		}
	}
	d.Rounds, d.OpsPerRound, d.Failing = plainRounds, plain.ops, plain.failing
	d.Fingerprint = fmt.Sprintf("%016x", plain.digest)
	attempted, failed := 0, 0
	ops := float64(plain.ops)

	for _, p := range plain.parts {
		if len(w.Parts) > 0 {
			m.set("scenario."+p.name+".seeds_per_s", float64(p.ops)/p.wall)
		}
		if p.name == "sharded4" {
			m.set("shard.sharded4.reqs_per_s", float64(p.ops)/p.wall)
		}
	}
	m.set("scenario.msgs_per_s", float64(plain.msgs)/plainWall)
	m.set("scenario.bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops/plainRounds)
	if cpu1 > cpu0 {
		m.set("scenario.gc_cpu_share", (gc1-gc0)/(cpu1-cpu0))
	}

	// Span pass: per-scenario sweeps, 256-seed batches, per-op intervals.
	var intervals []float64
	id = spans.begin("pass spans", root)
	hooked := r.round(pass{spans: spans, parent: id, intervals: &intervals})
	spans.end(id)
	if len(intervals) > 0 {
		m.set("scenario.op_p50_us", median(intervals))
		m.set("scenario.op_p99_us", percentile(intervals, 0.99))
	}

	// Observed pass: exact counts from the obs plane, and what arming it costs.
	id = spans.begin("pass observed", root)
	t := wallNow()
	observed := r.round(pass{observe: true})
	observedWall := since(t)
	spans.end(id)
	m.set("obs.overhead_share", observedWall/plainWall-1)
	setCounts(m, w, observed)

	// Model pass: what the simulated service sustains, in virtual time,
	// under Poisson arrivals.
	if sat, ok := r.(*satRunner); ok {
		id = spans.begin("pass model", root)
		model := sat.round(pass{poisson: true})
		lat := sat.latencyRun()
		spans.end(id)
		for name, v := range model.model {
			m.set(name, v)
		}
		attempted, failed = attempted+model.attempted, failed+model.failed
		m.set("model.vlat_p50_us", float64(lat.Latency.P50.Nanoseconds())/1e3)
		m.set("model.vlat_p99_us", float64(lat.Latency.P99.Nanoseconds())/1e3)
		m.set("model.vlat_samples", float64(lat.Latency.Count))
		attempted += lat.Requests
		if !lat.XAble || !lat.Replied {
			failed += lat.Requests
		}
	}

	// Profile pass: where an operation's host CPU goes.
	id = spans.begin("pass profile", root)
	profiled := []roundOut{}
	shares, err := cpuShares(o.outDir, func() {
		for t := wallNow(); len(profiled) == 0 || since(t) < o.profileSeconds(); {
			profiled = append(profiled, r.round(pass{}))
		}
	})
	spans.end(id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: cpu.* metrics left at 0: %v\n", err)
	}
	for b, v := range shares {
		m.set("cpu."+b, v)
	}

	for _, out := range append(append(plains, hooked, observed), profiled...) {
		attempted, failed = attempted+out.attempted, failed+out.failed
		if out.digest != plain.digest {
			d.Mismatch++
		}
	}
	m.set("scenario.dist_mismatch", float64(d.Mismatch))
	m.set("fail_share", float64(failed)/float64(attempted))

	// Peak memory of the workload's passes, before the probes add theirs.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.set("scenario.peak_rss_mb", float64(ru.Maxrss)/1024)
	}

	id = spans.begin("probes", root)
	runProbes(m, o.probeSeconds(), o.probeShrink(), spans, id)
	spans.end(id)
	spans.end(root)
	spans.print(2)
	if err := spans.writeChrome(filepath.Join(o.outDir, "trace."+w.Name+".json")); err != nil {
		return nil, d, result{}, err
	}
	// A metric that does not exist on this workload reads 0.
	for _, name := range m.missing() {
		m.set(name, 0)
	}
	return m, d, m.result(failed == 0, attempted, failed), nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setCounts derives the count-based layer metrics from the observed pass.
func setCounts(m *metricSet, w *workloadDef, out roundOut) {
	c := out.counts
	if len(c) == 0 {
		return // no simulator ran: the checker has no obs plane
	}
	for name := range c {
		c[name] = math.Round(c[name])
	}
	ops := float64(out.ops)
	sent := c["msg.submit"] + c["msg.result"] + c["msg.announce"] + c["msg.heartbeat"] + c["msg.cons"] + c["msg.other"]
	m.set("simnet.delivered_share", 1-ratio(c["msg.dropped"], sent))
	m.set("fd.suspicions_per_op", c["fd.suspicions"]/ops)
	m.set("fd.unsuspicions_per_op", c["fd.unsuspicions"]/ops)
	m.set("consensus.rounds_per_decision", ratio(c["cons.rounds"], c["cons.decisions"]))
	m.set("consensus.decisions_per_proposal", ratio(c["cons.decisions"], c["cons.proposals"]))
	m.set("consensus.retransmits_per_op", c["cons.retransmits"]/ops)
	m.set("core.batch_size_mean", ratio(c["batch.reqs"], c["batch.slots"]))
	m.set("core.pipeline_depth_max", c["batch.pipeline_depth_max"])
	m.set("core.replies_per_submit", ratio(c["req.replied"], c["req.submitted"]))
	m.set("core.failovers_per_op", c["req.failovers"]/ops)
	m.set("core.takeovers_per_op", c["req.takeovers"]/ops)
	m.set("core.recovery_vus_p50", ratio(c["recovery.p50_ns.sum"], c["recovery.runs"])/1e3)
	m.set("core.recovery_vus_p99", ratio(c["recovery.p99_ns.sum"], c["recovery.runs"])/1e3)
	m.set("wal.appends_per_op", c["wal.appends"]/ops)
	m.set("wal.compactions_per_op", c["wal.compactions"]/ops)
	if len(w.Parts) > 0 {
		// Sweeps: messages per answered request over the whole pass.
		// Saturation reports it at one rate of one config instead.
		m.set("core.msgs_per_req", ratio(sent, c["req.replied"]))
	}
}
