package main

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"xability/internal/core"
	"xability/internal/event"
	"xability/internal/exper"
	"xability/internal/obs"
	"xability/internal/reduce"
	"xability/internal/scenario"
	"xability/internal/workload"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

// seedBlocks is how many distinct inputs --seed selects among. Every
// block was run at the commit that added the benchmark and holds no
// failing operation, so a failure in a later run is the later change's.
const seedBlocks = 128

// part is one scenario sweep of a round: the frozen seed count.
type part struct {
	Scenario string
	Seeds    int
}

// workloadDef is one benchmark workload: a round of fixed work that a run
// repeats for --seconds, identical every time for a given --seed.
type workloadDef struct {
	Name string
	Why  string
	// Op names what ops_per_s and allocs_per_op count.
	Op      string
	Parts   []part
	prepare func(w *workloadDef, seed int64, scale int) runner
}

var workloads = []*workloadDef{
	{
		Name:    "sweep-light",
		Why:     "Short fault-free and scripted-failover seeds: per-seed set-up (RNG seeding, actors, network reset) is most of the work, the message substrate little.",
		Op:      "seed",
		Parts:   []part{{"nice", 2000}, {"crash-failover", 1200}, {"sequence", 1000}},
		prepare: prepareSweep,
	},
	{
		Name:    "sweep-faults",
		Why:     "Heartbeat detectors, CT consensus, WAL crash-restart and 4 shards, 115-930 messages a seed: clock, network, consensus and wal do the work, set-up is a small share.",
		Op:      "seed",
		Parts:   []part{{"delay-storm-hb", 240}, {"partition-hb", 140}, {"power-cycle", 360}, {"shard-power-cycle", 60}},
		prepare: prepareSweep,
	},
	{
		Name:    "saturation",
		Why:     "Open-loop arrivals on costed replicas over a rate ladder into overload, three protocol configs: hundreds of concurrent sessions load the slot plane and the event heap; set-up is under 1%.",
		Op:      "request",
		prepare: prepareSaturation,
	},
	{
		Name:    "check",
		Why:     "The checker alone on long and duplicated synthetic histories plus non-x-able ones, no simulator: only reduce/verify can move it, and their super-linear growth shows here.",
		Op:      "event",
		prepare: prepareCheck,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// pass says how a round is run: with nothing set it is the plain timed
// round; a traced run sets spans, observe or intervals.
type pass struct {
	spans  *spanLog
	parent int
	// observe arms the obs plane and fills roundOut.counts.
	observe bool
	// intervals receives the host microseconds between successive
	// operation completions.
	intervals *[]float64
	// poisson makes saturation draw Poisson arrivals instead of evenly
	// spaced ones (the model pass of a traced run).
	poisson bool
}

// partOut is one scenario sweep (or one protocol config) of a round.
type partOut struct {
	name string
	ops  int
	wall float64
}

// roundOut is what one round of fixed work produced.
type roundOut struct {
	ops       int // units of work: seeds, requests or events
	attempted int // operations whose verdict was checked: seeds, sessions or histories
	failed    int
	failing   []string
	msgs      int64
	// digest folds every exact count of the round; equal inputs must give
	// equal digests at GOMAXPROCS=1.
	digest uint64
	parts  []partOut
	// counts are obs counter totals by schema name (observed pass only).
	counts map[string]float64
	// model holds per-layer outputs in virtual time, by metric name.
	model map[string]float64
}

type runner interface {
	round(p pass) roundOut
}

func blockOf(seed int64) int64 { return int64(uint64(seed) % seedBlocks) }

func scaled(n, scale int) int {
	if n = n / scale; n < 4 {
		n = 4
	}
	return n
}

type digest struct{ h uint64 }

func (d *digest) add(vals ...any) {
	f := fnv.New64a()
	fmt.Fprint(f, d.h, vals)
	d.h = f.Sum64()
}

// ---- sweep workloads ----

type sweepRunner struct {
	scs   []scenario.Scenario
	seeds [][]int64
}

// warmSeeds is the warm-up sweep every set-up runs per scenario, so that
// the timed rounds start on grown heaps and recycled networks.
const warmSeeds = 64

// prepareSweep is the sweep workloads' set-up: registry lookups, seed
// populations, and one warm-up sweep per scenario.
func prepareSweep(w *workloadDef, seed int64, scale int) runner {
	r := &sweepRunner{}
	for _, p := range w.Parts {
		sc, ok := scenario.Get(p.Scenario)
		if !ok {
			panic(fmt.Sprintf("bench: scenario %q is not registered", p.Scenario))
		}
		base := 1 + blockOf(seed)*1_000_000
		r.scs = append(r.scs, sc)
		r.seeds = append(r.seeds, scenario.Seeds(base, scaled(p.Seeds, scale)))
		scenario.Sweep(sc, scenario.Seeds(base, scaled(warmSeeds, scale)), 1)
	}
	return r
}

// batchSeeds is the span granularity inside one scenario sweep.
const batchSeeds = 256

func (r *sweepRunner) round(p pass) roundOut {
	out := roundOut{counts: make(map[string]float64)}
	var dg digest
	for i, sc := range r.scs {
		opts := scenario.SweepOptions{Workers: 1, Metrics: p.observe}
		sweep := p.spans.begin("sweep "+sc.Name, p.parent)
		if p.spans != nil || p.intervals != nil {
			opts.Progress = progressHook(p, sweep)
		}
		t := wallNow()
		d := scenario.SweepWithOptions(sc, r.seeds[i], opts)
		wall := since(t)
		p.spans.end(sweep)

		out.parts = append(out.parts, partOut{sc.Name, d.Runs, wall})
		out.ops += d.Runs
		out.attempted += d.Runs
		out.msgs += int64(d.Messages)
		bad := len(d.Failing)
		if sc.Durable {
			// The duplicate-replay audit is part of a durable run's
			// verdict; scenarios that resubmit one (action, input) on
			// purpose would trip it meaninglessly.
			bad += d.ReplayDuplicates
		}
		out.failed += bad
		for _, s := range d.Failing {
			out.failing = append(out.failing, fmt.Sprintf("%s:%d", sc.Name, s))
		}
		if d.Rollup != nil {
			for c := obs.Counter(0); c < obs.NumCounters; c++ {
				out.counts[c.Name()] += d.Rollup.Stat(c.Name()).Mean * float64(d.Rollup.Runs)
			}
			for g := obs.Gauge(0); g < obs.NumGauges; g++ {
				if v := float64(d.Rollup.Stat(g.Name()).Max); v > out.counts[g.Name()] {
					out.counts[g.Name()] = v
				}
			}
			if rec := d.Rollup.Stat("recovery.count"); rec.Max > 0 {
				out.counts["recovery.runs"] += float64(d.Runs)
				out.counts["recovery.p50_ns.sum"] += float64(d.Rollup.Stat("recovery.p50_ns").P50) * float64(d.Runs)
				out.counts["recovery.p99_ns.sum"] += float64(d.Rollup.Stat("recovery.p99_ns").P99) * float64(d.Runs)
			}
			d.Rollup = nil
		}
		dg.add(d)
	}
	out.digest = dg.h
	return out
}

// progressHook turns SweepOptions.Progress into 256-seed batch spans and
// per-seed completion intervals. Progress may be called concurrently.
func progressHook(p pass, sweep int) func(done, total int) {
	var mu sync.Mutex
	last := wallNow()
	batch := p.spans.begin("batch", sweep)
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		now := wallNow()
		if p.intervals != nil {
			*p.intervals = append(*p.intervals, now.Sub(last).Seconds()*1e6)
		}
		last = now
		if done%batchSeeds == 0 || done == total {
			p.spans.end(batch)
			if done < total {
				batch = p.spans.begin("batch", sweep)
			}
		}
	}
}

// ---- saturation ----

// Injected model parameters of the saturation ladder (printed in every
// run's header).
var (
	satCosts  = core.CostModel{Consensus: 20 * time.Microsecond, Exec: 5 * time.Microsecond}
	satBatch  = core.BatchConfig{Enabled: true, MaxSize: 16, Window: 100 * time.Microsecond, Pipeline: 8}
	satWindow = 5 * time.Millisecond
	satSLO    = 1000 * time.Microsecond
	satLadder = []int{10_000, 20_000, 40_000, 80_000, 160_000}
	// satLatencyRate is where latency is reported, and satLatencyWindow
	// the longer arrival window of that one traced run: p99 wants at
	// least 1 000 sessions.
	satLatencyRate   = 40_000
	satLatencyWindow = 25 * time.Millisecond
)

type satConfig struct {
	name     string
	batch    core.BatchConfig
	shards   int
	replicas int
	rates    []int
}

var satConfigs = []satConfig{
	// Unbatched saturates near 21k/vsec; past 80k a run only grows its
	// backlog, so its ladder stops there.
	{"unbatched", core.BatchConfig{}, 0, 3, satLadder[:4]},
	{"batched+pipelined", satBatch, 0, 3, satLadder},
	{"sharded4", satBatch, 4, 3, satLadder},
	// The single-node baseline: one replica, no peers to agree with.
	{"single-replica", satBatch, 0, 1, satLadder[3:4]},
}

// satScenario is one point of the ladder. Timed rounds space arrivals
// evenly: an overloaded run's host cost grows faster than its backlog, so
// with Poisson bursts it varies 1.5-3x from seed to seed (ten seeds spread
// 19% on ops_per_s, against 6% evenly spaced, the host's own noise). The
// offered load is the same; keys, clients and message delays still come
// from the seed. Poisson arrivals are kept for the model pass, whose
// virtual-time outputs are exact per seed whatever the host cost.
func satScenario(c satConfig, rate int, window time.Duration, arrival workload.ArrivalKind) scenario.Scenario {
	spec := satSpec(rate, window, arrival)
	return scenario.Scenario{
		Name:     fmt.Sprintf("saturation/%s/%d", c.name, rate),
		Batch:    c.batch,
		Costs:    satCosts,
		Shards:   c.shards,
		Replicas: c.replicas,
		Accounts: spec.Accounts,
		OpenLoop: &spec,
	}
}

// satSpec is the ladder's arrival schedule at one rate: 400 clients, 16
// accounts, Zipf 1.2 key popularity.
func satSpec(rate int, window time.Duration, arrival workload.ArrivalKind) workload.OpenLoopSpec {
	return workload.OpenLoopSpec{
		Clients: 400, Rate: float64(rate), Duration: window, Accounts: 16, ZipfS: 1.2, Arrival: arrival,
	}
}

type satRunner struct {
	seed    int64
	configs []satConfig
}

// prepareSaturation resolves the ladder and warms every config up at its
// lowest rate. Arrival schedules are generated inside each run, so they
// are timed, not set up.
func prepareSaturation(w *workloadDef, seed int64, scale int) runner {
	r := &satRunner{seed: 1 + blockOf(seed)}
	for _, c := range satConfigs {
		if scale > 1 && len(c.rates) > 2 {
			c.rates = c.rates[:2]
		}
		r.configs = append(r.configs, c)
		scenario.Execute(satScenario(c, c.rates[0], satWindow, workload.Fixed), r.seed)
	}
	return r
}

func (r *satRunner) round(p pass) roundOut {
	out := roundOut{counts: make(map[string]float64), model: make(map[string]float64)}
	var dg digest
	peak := make(map[string]float64)
	slo := make(map[string]float64)
	arrival := workload.Fixed
	if p.poisson {
		arrival = workload.Poisson
	}
	for _, c := range r.configs {
		id := p.spans.begin("config "+c.name, p.parent)
		t := wallNow()
		ops := 0
		sloOpen := true
		for _, rate := range c.rates {
			sc := satScenario(c, rate, satWindow, arrival)
			run := p.spans.begin(fmt.Sprintf("run %d/vsec", rate), id)
			var o scenario.Outcome
			if p.observe {
				o = scenario.ExecuteObserved(sc, r.seed, &obs.Run{Metrics: obs.NewMetrics()})
			} else {
				o = scenario.Execute(sc, r.seed)
			}
			p.spans.end(run)
			ok := o.XAble && o.Replied && !o.TimedOut
			out.attempted += o.Requests
			if !ok {
				out.failed += o.Requests
				out.failing = append(out.failing, fmt.Sprintf("%s:%d", sc.Name, r.seed))
			}
			ops += o.Requests
			out.msgs += int64(o.Messages)
			dg.add(sc.Name, o.Requests, o.Attempts, o.Messages, o.SimTime, o.Latency, o.EffectsInForce, ok)
			if ok && o.SimTime > 0 {
				if v := float64(o.Requests) / o.SimTime.Seconds(); v > peak[c.name] {
					peak[c.name] = v
				}
			}
			// The highest rate that meets the latency limit without a
			// growing backlog, every lower rate meeting it too.
			if sloOpen && ok && o.Latency.P99 <= satSLO && o.SimTime <= satWindow*3/2 {
				slo[c.name] = float64(rate)
			} else {
				sloOpen = false
			}
			if c.name == "batched+pipelined" && rate == satLatencyRate && o.Requests > 0 {
				out.model["core.msgs_per_req"] = float64(o.Messages) / float64(o.Requests)
			}
			if o.Obs != nil {
				addSnapshot(out.counts, o.Obs)
			}
		}
		wall := since(t)
		p.spans.end(id)
		out.parts = append(out.parts, partOut{c.name, ops, wall})
		out.ops += ops
	}
	out.model["model.ops_per_vsec"] = peak["batched+pipelined"]
	out.model["model.max_rate_slo"] = slo["batched+pipelined"]
	out.model["core.unbatched.ops_per_vsec"] = peak["unbatched"]
	out.model["core.unbatched.max_rate_slo"] = slo["unbatched"]
	out.model["core.single_replica.ops_per_vsec"] = peak["single-replica"]
	out.model["shard.sharded4.ops_per_vsec"] = peak["sharded4"]
	if peak["batched+pipelined"] > 0 {
		out.model["shard.scaling_1to4"] = peak["sharded4"] / peak["batched+pipelined"]
	}
	out.digest = dg.h
	return out
}

// latencyRun is the traced run's one long-window run at satLatencyRate:
// the virtual submit→reply latency of the batched+pipelined service.
func (r *satRunner) latencyRun() scenario.Outcome {
	return scenario.Execute(satScenario(satConfigs[1], satLatencyRate, satLatencyWindow, workload.Poisson), r.seed)
}

// addSnapshot folds one run's obs snapshot into counter totals.
func addSnapshot(counts map[string]float64, s *obs.Snapshot) {
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		counts[c.Name()] += float64(s.Counters[c])
	}
	for g := obs.Gauge(0); g < obs.NumGauges; g++ {
		if v := float64(s.Gauges[g]); v > counts[g.Name()] {
			counts[g.Name()] = v
		}
	}
}

// ---- check ----

type checkCase struct {
	h     event.History
	specs []reduce.TargetSpec
	want  bool
}

type checkRunner struct {
	cases []checkCase
}

// checkCorpus is the frozen corpus shape of one round: synthetic
// histories of `requests` requests with every execution duplicated `dup`
// times, `n` of each. Sizes are jittered by at most half a percent from
// the seed block.
var checkCorpus = []struct{ requests, dup, n int }{
	{3200, 1, 1}, {800, 1, 10}, {320, 3, 1}, {80, 3, 10},
}

// badHistories is how many hand-broken histories a round checks; their
// expected verdict is false.
const badHistories = 20

// warmEvents bounds the histories the check set-up runs once as warm-up:
// all but the two long ones, about a quarter of a round. Without it the
// set-up is 9 ms of string formatting, too short to time steadily.
const warmEvents = 1700

// prepareCheck builds the corpus: the x-able synthetic histories, then
// the broken ones, each a small synthetic history with one defect; then
// checks the short histories once.
func prepareCheck(w *workloadDef, seed int64, scale int) runner {
	reg := workload.Registry()
	block := int(blockOf(seed))
	r := &checkRunner{}
	for i, c := range checkCorpus {
		requests := scaled(c.requests, scale)
		requests += (block*(i+3))%(requests/100+1) - requests/200
		for k := 0; k < c.n; k++ {
			h, specs := exper.SyntheticHistory(reg, requests, c.dup)
			r.cases = append(r.cases, checkCase{h, specs, true})
		}
	}
	for k := 0; k < badHistories; k++ {
		h, specs := exper.SyntheticHistory(reg, 24, 2)
		r.cases = append(r.cases, checkCase{breakHistory(h, block+k), specs, false})
	}
	for _, c := range r.cases {
		if len(c.h) < warmEvents {
			reduce.New(reg).XAbleTo(c.h, c.specs)
		}
	}
	return r
}

// breakHistory returns h with one defect chosen by pick: a completion
// whose output contradicts its duplicate, a request whose completions are
// all lost, or an execution no request asked for.
func breakHistory(h event.History, pick int) event.History {
	h = h.Clone()
	// With dup=2 a request occupies 4 events: S S C C.
	req := (pick / 3) % (len(h) / 4)
	switch pick % 3 {
	case 0:
		h[req*4+3].Value = "contradiction"
	case 1:
		h = append(h[:req*4+2], h[req*4+4:]...)
	default:
		extra := event.History{event.S("read", "nobody"), event.C("read", "v")}
		h = append(h[:req*4:req*4], append(extra, h[req*4:]...)...)
	}
	return h
}

func (r *checkRunner) round(p pass) roundOut {
	var out roundOut
	var dg digest
	reg := workload.Registry()
	id := p.spans.begin("check corpus", p.parent)
	t := wallNow()
	last := t
	for _, c := range r.cases {
		// One normalizer per history, as xcheck builds one per invocation.
		ok, _ := reduce.New(reg).XAbleTo(c.h, c.specs)
		out.ops += len(c.h)
		out.attempted++
		if ok != c.want {
			out.failed++
			out.failing = append(out.failing, fmt.Sprintf("history[%d events] want %v", len(c.h), c.want))
		}
		dg.add(len(c.h), ok)
		if p.intervals != nil {
			now := wallNow()
			*p.intervals = append(*p.intervals, now.Sub(last).Seconds()*1e6)
			last = now
		}
	}
	out.parts = []partOut{{"check", out.ops, since(t)}}
	p.spans.end(id)
	out.digest = dg.h
	return out
}
