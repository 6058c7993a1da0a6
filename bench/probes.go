package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"xability/internal/action"
	"xability/internal/consensus"
	"xability/internal/core"
	"xability/internal/env"
	"xability/internal/exper"
	"xability/internal/fd"
	"xability/internal/reduce"
	"xability/internal/scenario"
	"xability/internal/shard"
	"xability/internal/simnet"
	"xability/internal/sm"
	"xability/internal/trace"
	"xability/internal/vclock"
	"xability/internal/verify"
	"xability/internal/wal"
	"xability/internal/workload"
)

// Probes are tight loops around one public call of one layer, timed from
// outside: host nanoseconds and heap allocations per call. They are the
// same on every workload; a traced run prints them beside the workload's
// own counts so a moved end-to-end number can be laid against the layer
// that moved.

// prober runs probes of a fixed length each and records one span per
// probe under its layer's span.
type prober struct {
	dur float64 // host seconds per probe
	// shrink divides the sizes of the probes whose single call is long
	// (1 in real runs); the smoke path only checks that they run.
	shrink int
	spans  *spanLog
	root   int
	layer  int
	m      *metricSet
}

func (p *prober) enter(layer string) {
	p.leave()
	p.layer = p.spans.begin("layer "+layer, p.root)
}

func (p *prober) leave() {
	if p.layer >= 0 {
		p.spans.end(p.layer)
		p.layer = -1
	}
}

// time runs fn (one call = batch operations) until the probe length has
// passed, after one untimed warm-up call, and returns host ns and heap
// allocations per operation.
func (p *prober) time(name string, batch int, fn func()) (ns, allocs float64) {
	id := p.spans.begin("probe "+name, p.layer)
	defer p.spans.end(id)
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := wallNow()
	ops := 0
	for {
		fn()
		ops += batch
		if since(start) >= p.dur {
			break
		}
	}
	wall := since(start)
	runtime.ReadMemStats(&after)
	return wall * 1e9 / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// ns is time for probes that report host time only.
func (p *prober) ns(name string, batch int, fn func()) {
	v, _ := p.time(name, batch, fn)
	p.m.set(name, v)
}

const probeNetDelay = 200 * time.Microsecond // the scenarios' default MaxDelay

// runProbes fills every probe metric of m. It runs at GOMAXPROCS=1
// whatever the workload, the only setting at which the layers' counts are
// exact at this commit.
func runProbes(m *metricSet, dur float64, shrink int, spans *spanLog, root int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := &prober{dur: dur, shrink: shrink, spans: spans, root: root, layer: -1, m: m}
	defer p.leave()
	p.enter("vclock")
	probeVClock(p)
	p.enter("simnet")
	probeSimnet(p)
	p.enter("fd")
	probeFD(p)
	p.enter("consensus")
	probeConsensus(p)
	p.enter("core")
	probeCore(p)
	p.enter("wal")
	probeWAL(p)
	p.enter("shard+sm+env+workload")
	probeActors(p)
	p.enter("verify")
	probeVerify(p)
	p.enter("scenario")
	probeScenario(p)
}

func probeVClock(p *prober) {
	v := vclock.NewVirtual()
	v.Enter()
	ns, allocs := p.time("vclock.sleep_ns", 64, func() {
		for i := 0; i < 64; i++ {
			v.Sleep(time.Microsecond)
		}
	})
	p.m.set("vclock.sleep_ns", ns)
	p.m.set("vclock.sleep_allocs", allocs)
	noop := func() {}
	// One scheduled spawn plus the sleep that lets it fire.
	p.ns("vclock.goafter_ns", 64, func() {
		for i := 0; i < 64; i++ {
			v.GoAfter(time.Microsecond, noop)
			v.Sleep(2 * time.Microsecond)
		}
	})
	// One immediate spawn plus the zero sleep that waits it out.
	p.ns("vclock.go_spawn_ns", 64, func() {
		for i := 0; i < 64; i++ {
			v.Go(noop)
			v.Sleep(0)
		}
	})
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	wake := func() { cond.Broadcast() }
	// The shape of every endpoint receive: block on a clock cond until a
	// scheduled event broadcasts.
	p.ns("vclock.cond_wake_ns", 64, func() {
		for i := 0; i < 64; i++ {
			v.GoAfter(0, wake)
			mu.Lock()
			cond.Wait()
			mu.Unlock()
		}
	})
	// Heap depth: the same sleep with 1 000 far-future events queued.
	for i := 0; i < 1000; i++ {
		v.GoAfter(time.Hour+time.Duration(i), noop)
	}
	p.ns("vclock.sleep_1k_pending_ns", 64, func() {
		for i := 0; i < 64; i++ {
			v.Sleep(time.Microsecond)
		}
	})
	v.Exit()
}

func probeSimnet(p *prober) {
	n := simnet.New(simnet.Config{Seed: 1})
	a, b := n.Register("a"), n.Register("b")
	ns, allocs := p.time("simnet.sendrecv_ns", 64, func() {
		for i := 0; i < 64; i++ {
			a.Send("b", "m", i)
			b.Recv()
		}
	})
	p.m.set("simnet.sendrecv_ns", ns)
	p.m.set("simnet.sendrecv_allocs", allocs)
	n.Close()

	n = simnet.New(simnet.Config{Seed: 1})
	src := n.Register("src")
	var peers []*simnet.Endpoint
	for i := 0; i < 6; i++ {
		peers = append(peers, n.Register(simnet.ProcessID(fmt.Sprintf("p%d", i))))
	}
	p.ns("simnet.broadcast6_ns", 16, func() {
		for i := 0; i < 16; i++ {
			src.Broadcast("m", i)
			for _, ep := range peers {
				ep.Recv()
			}
		}
	})
	n.Close()

	// A fresh three-replica world against a recycled one: what a sweep
	// worker saves per seed by resetting its network.
	ids := []simnet.ProcessID{"client", "replica-0", "replica-1", "replica-2"}
	p.ns("simnet.new_ns", 1, func() {
		w := simnet.New(simnet.Config{Seed: 1, MaxDelay: probeNetDelay})
		for _, id := range ids {
			w.Register(id)
		}
		w.Close()
	})
	w := simnet.New(simnet.Config{Seed: 1, MaxDelay: probeNetDelay})
	for _, id := range ids {
		w.Register(id)
	}
	seed := int64(1)
	p.ns("simnet.reset_ns", 1, func() {
		w.Close()
		seed++
		if !w.Reset(simnet.Config{Seed: seed, MaxDelay: probeNetDelay}) {
			panic("bench: simnet.Reset refused an idle network")
		}
		for _, id := range ids {
			w.Register(id)
		}
	})
	w.Close()
}

// probeFD idles three heartbeat detectors for one virtual second a call:
// host nanoseconds per virtual millisecond of a quiet deployment.
func probeFD(p *prober) {
	vms := 1000 / p.shrink
	ns, _ := p.time("fd.heartbeat_ns_per_vms", vms, func() {
		n := simnet.New(simnet.Config{Seed: 1, MaxDelay: probeNetDelay})
		ids := []simnet.ProcessID{"replica-0", "replica-1", "replica-2"}
		eps := make([]*simnet.Endpoint, len(ids))
		for i, id := range ids {
			eps[i] = n.Register(fd.FDEndpoint(id))
		}
		var hbs []*fd.Heartbeat
		for i, id := range ids {
			var others []simnet.ProcessID
			for _, o := range ids {
				if o != id {
					others = append(others, o)
				}
			}
			hb := fd.NewHeartbeat(id, eps[i], others, fd.HeartbeatConfig{})
			hb.Start()
			hbs = append(hbs, hb)
		}
		clk := n.Clock()
		clk.Sleep(time.Duration(vms) * time.Millisecond)
		clk.Enter()
		for _, hb := range hbs {
			hb.Stop()
		}
		clk.Exit()
		n.Close()
	})
	p.m.set("fd.heartbeat_ns_per_vms", ns)
}

func probeConsensus(p *prober) {
	local := consensus.NewLocalProvider()
	k := 0
	p.ns("consensus.local_propose_ns", 64, func() {
		for i := 0; i < 64; i++ {
			k++
			local.Object(consensus.Key{Space: consensus.SpaceResult, ID: "q", Round: int32(k)}).Propose(k)
		}
		if k > 1<<16 { // bound the provider's map
			local, k = consensus.NewLocalProvider(), 0
		}
	})

	// One full CT instance: three nodes, one proposer, scripted detectors.
	n := simnet.New(simnet.Config{Seed: 1, MaxDelay: probeNetDelay})
	ids := []simnet.ProcessID{"n0", "n1", "n2"}
	var nodes []*consensus.Node
	for _, id := range ids {
		node := consensus.NewNode(id, n.Register(consensus.ConsEndpoint(id)), ids, fd.NewScripted(n))
		node.Start()
		nodes = append(nodes, node)
	}
	clk := n.Clock()
	inst, decides := 0, 0
	v0, sent0 := clk.Now(), n.TotalSent()
	p.ns("consensus.ct_decide_ns", 8, func() {
		for i := 0; i < 8; i++ {
			inst++
			if got := nodes[0].Propose(consensus.At(fmt.Sprintf("k%d", inst)), inst); got != inst {
				panic(fmt.Sprintf("bench: CT decided %v, proposed %d", got, inst))
			}
		}
		decides += 8
	})
	p.m.set("consensus.ct_decide_vus", float64(clk.Now()-v0)/1e3/float64(decides))
	p.m.set("consensus.ct_msgs_per_decide", float64(n.TotalSent()-sent0)/float64(decides))
	for _, node := range nodes {
		node.Stop()
	}
	n.Close()
}

func probeCluster(mode core.ConsensusMode, seed int64) *core.Cluster {
	return core.NewCluster(core.ClusterConfig{
		Replicas:  3,
		Seed:      seed,
		Net:       simnet.Config{MaxDelay: probeNetDelay},
		Consensus: mode,
		Registry:  workload.Registry(),
		Setup:     workload.NewBank(4, 1<<30).Setup(),
	})
}

func probeCore(p *prober) {
	seed := int64(0)
	ns, allocs := p.time("core.newcluster_ns", 1, func() {
		seed++
		c := probeCluster(core.ConsensusLocal, seed)
		c.Stop()
		c.Net.Quiesce()
	})
	p.m.set("core.newcluster_ns", ns)
	p.m.set("core.newcluster_allocs", allocs)

	for _, mode := range []struct {
		name string
		mode core.ConsensusMode
	}{{"core.submit_local_ns", core.ConsensusLocal}, {"core.submit_ct_ns", core.ConsensusCT}} {
		c := probeCluster(mode.mode, 1)
		reqs := workload.Generate(workload.Spec{Requests: 16, Accounts: 4}, 1)
		p.ns(mode.name, len(reqs), func() {
			for _, r := range reqs {
				if c.Client.SubmitUntilSuccess(r) == "" {
					panic("bench: closed-loop submit got no reply")
				}
			}
		})
		c.Stop()
		c.Net.Quiesce()
	}

	// Closed-loop virtual throughput: 64 sequential requests, local
	// consensus, default delays.
	c := probeCluster(core.ConsensusLocal, 1)
	reqs := workload.Generate(workload.Spec{Requests: 64, Accounts: 4}, 1)
	clk := c.Clock()
	clk.Enter()
	v0 := clk.Now()
	for _, r := range reqs {
		c.Client.SubmitUntilSuccess(r)
	}
	span := clk.Now() - v0
	c.Stop()
	clk.Exit()
	c.Net.Quiesce()
	p.m.set("core.closed_ops_per_vsec", float64(len(reqs))/span.Seconds())
}

func probeWAL(p *prober) {
	clk := vclock.NewVirtual()
	rec := wal.Record{Kind: "req", Key: "q17", Round: 3, Str: "client"}
	const perLog = 4096 // bound each log's memory
	ns, allocs := p.time("wal.append_ns", perLog, func() {
		log := wal.NewStore(clk, wal.Config{}).Log("p")
		for i := 0; i < perLog; i++ {
			log.Append(rec)
		}
	})
	p.m.set("wal.append_ns", ns)
	p.m.set("wal.append_allocs", allocs)

	// Compaction folds a log to a tenth; replay walks a full one.
	keepTenth := func(prefix []wal.Record) []wal.Record { return prefix[:len(prefix)/10] }
	clk.Enter()
	p.ns("wal.compact_ns_per_rec", perLog, func() {
		log := wal.NewStore(clk, wal.Config{}).Log("p")
		log.SetCompactor(keepTenth)
		for i := 0; i < perLog; i++ {
			log.Append(rec)
		}
		if !log.Compact() {
			panic("bench: wal compaction installed nothing")
		}
	})
	clk.Exit()
	log := wal.NewStore(clk, wal.Config{}).Log("p")
	for i := 0; i < perLog; i++ {
		log.Append(rec)
	}
	seen := 0
	p.ns("wal.replay_ns_per_rec", perLog, func() {
		log.Replay(func(wal.Record) { seen++ })
	})
}

func probeActors(p *prober) {
	ring := shard.NewRing(4, 0)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct-%d", i)
	}
	owners := 0
	p.ns("shard.owner_ns", len(keys), func() {
		for _, k := range keys {
			owners += ring.Owner(k)
		}
	})

	reg := workload.Registry()
	seed := int64(0)
	p.ns("env.new_ns", 16, func() {
		for i := 0; i < 16; i++ {
			seed++
			env.New(trace.New(), seed)
		}
	})
	world := env.New(trace.New(), 1)
	p.ns("sm.new_ns", 16, func() {
		for i := 0; i < 16; i++ {
			seed++
			sm.New("replica-0", reg, world, seed)
		}
	})
	p.ns("workload.generate_ns_per_req", 64, func() {
		seed++
		workload.Generate(workload.Spec{Requests: 64, Accounts: 4}, seed)
	})
	spec := satSpec(satLatencyRate, satWindow, workload.Poisson)
	arrivals := len(workload.GenerateOpenLoop(spec, 1))
	p.ns("workload.openloop_ns_per_arrival", arrivals, func() {
		workload.GenerateOpenLoop(spec, 1)
	})
}

func probeVerify(p *prober) {
	reg := workload.Registry()
	perEvent := func(name string, requests, dup int) (events int, ns float64) {
		h, specs := exper.SyntheticHistory(reg, requests/p.shrink, dup)
		ns, _ = p.time(name, len(h), func() {
			if ok, _ := reduce.New(reg).XAbleTo(h, specs); !ok {
				panic("bench: synthetic history is not x-able")
			}
		})
		p.m.set(name, ns)
		return len(h), ns
	}
	// The log-log slope between two sizes: 1 is linear in the history
	// length, 2 quadratic.
	growth := func(n1 int, t1 float64, n2 int, t2 float64) float64 {
		return 1 + math.Log(t2/t1)/math.Log(float64(n2)/float64(n1))
	}
	n1, t1 := perEvent("verify.ns_per_event.dup1.n640", 320, 1)
	n2, t2 := perEvent("verify.ns_per_event.dup1.n6400", 3200, 1)
	p.m.set("verify.growth_exp.dup1", growth(n1, t1, n2, t2))
	n1, t1 = perEvent("verify.ns_per_event.dup3.n480", 80, 3)
	n2, t2 = perEvent("verify.ns_per_event.dup3.n1920", 320, 3)
	p.m.set("verify.growth_exp.dup3", growth(n1, t1, n2, t2))

	run := stationRun()
	p.ns("verify.concurrent_ns_per_event", len(run.History), func() {
		if rep := verify.Check(run); !rep.OK() {
			panic(fmt.Sprintf("bench: station log failed verification: %v", rep.Details))
		}
	})
}

// stationRun drives one open-loop arrival schedule through a Station and
// returns what the concurrent verifier is given: the completion log and
// the observed history.
func stationRun() verify.Run {
	spec := satSpec(satLatencyRate, satWindow, workload.Poisson)
	arrivals := workload.GenerateOpenLoop(spec, 1)
	ats := make([]time.Duration, len(arrivals))
	reqs := make([]action.Request, len(arrivals))
	for i, a := range arrivals {
		ats[i], reqs[i] = a.At, a.Req
	}
	c := core.NewCluster(core.ClusterConfig{
		Replicas: 3,
		Seed:     1,
		Net:      simnet.Config{MaxDelay: probeNetDelay},
		Registry: workload.Registry(),
		Setup:    workload.NewBank(spec.Accounts, 100).Setup(),
		Batch:    satBatch,
		Costs:    satCosts,
	})
	st := c.OpenStation()
	clk := c.Clock()
	clk.Enter()
	st.Drive(ats, reqs)
	clk.Sleep(2 * time.Millisecond)
	for i := 0; i < 400 && c.Env.PendingOutcome() > 0; i++ {
		clk.Sleep(500 * time.Microsecond)
	}
	h := c.Observer.History()
	c.Stop()
	clk.Exit()
	c.Net.Quiesce()
	logged, replies := st.Log()
	return verify.Run{
		Registry:       workload.Registry(),
		Requests:       logged,
		Replies:        replies,
		History:        h,
		SubmitAttempts: st.Attempts(),
		Concurrent:     true,
	}
}

// probeScenario prices the sweep's network recycling: the same nice seeds
// through fresh-world Execute calls over one recycling Sweep.
func probeScenario(p *prober) {
	sc, ok := scenario.Get("nice")
	if !ok {
		panic("bench: scenario nice is not registered")
	}
	seeds := scenario.Seeds(1, 128)
	fresh, _ := p.time("scenario.fresh", len(seeds), func() {
		for _, s := range seeds {
			scenario.Execute(sc, s)
		}
	})
	recycled, _ := p.time("scenario.recycled", len(seeds), func() {
		scenario.Sweep(sc, seeds, 1)
	})
	p.m.set("scenario.fresh_vs_recycled", fresh/recycled)
	probeParallel(p)
}

// parallelParts is the sweep the parallel probe runs twice: light seeds,
// CT consensus under partition, and WAL restarts. No heartbeat scenario:
// at this commit a fresh network's first seed can panic at GOMAXPROCS>1
// (a heartbeat sender beats its peer's Register).
var parallelParts = []part{{"nice", 1000}, {"crash-failover", 600}, {"partition", 300}, {"power-cycle", 150}}

// probeParallel sweeps the same seeds with one worker at GOMAXPROCS=1 and
// with two at GOMAXPROCS=2: two clocks then share one heap, GC and Go
// scheduler. It reports the wall-time ratio per scenario and over all,
// and how many scenarios' verdict distributions differ between the two —
// parallel scaling and its determinism. Each side is the faster of two
// sweeps: the first two-worker sweep of a process runs well below its
// steady rate. On a shared 2-vCPU host the two-worker wall time spreads
// over 20% from run to run, which is why this is a probe and not a gated
// workload.
func probeParallel(p *prober) {
	var serial, parallel float64
	mismatch := 0
	for _, part := range parallelParts {
		sc, ok := scenario.Get(part.Scenario)
		if !ok {
			panic(fmt.Sprintf("bench: scenario %q is not registered", part.Scenario))
		}
		seeds := scenario.Seeds(1, part.Seeds/p.shrink)
		id := p.spans.begin("probe scenario.parallel."+part.Scenario, p.layer)
		best := [3]float64{1: math.Inf(1), 2: math.Inf(1)}
		var dists [3]string
		for rep := 0; rep < 2; rep++ {
			for workers := 1; workers <= 2; workers++ {
				runtime.GOMAXPROCS(workers)
				t := wallNow()
				d := scenario.Sweep(sc, seeds, workers)
				best[workers] = math.Min(best[workers], since(t))
				dists[workers] = fmt.Sprint(d)
			}
		}
		runtime.GOMAXPROCS(1)
		p.spans.end(id)
		p.m.set("scenario.parallel."+part.Scenario+".speedup", best[1]/best[2])
		serial, parallel = serial+best[1], parallel+best[2]
		if dists[1] != dists[2] {
			mismatch++
		}
	}
	p.m.set("scenario.parallel_speedup", serial/parallel)
	p.m.set("scenario.parallel.dist_mismatch", float64(mismatch))
}
