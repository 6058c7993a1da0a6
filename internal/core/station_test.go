package core

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/obs"
	"xability/internal/simnet"
	"xability/internal/verify"
	"xability/internal/workload"
)

// openLoopRun is an open-loop workload staged against a freshly assembled
// bank cluster: the station and the seeded arrival schedule, not yet
// driven.
type openLoopRun struct {
	c    *Cluster
	st   *Station
	ats  []time.Duration
	reqs []action.Request
}

func newOpenLoopRun(t *testing.T, cfg ClusterConfig, spec workload.OpenLoopSpec, seed int64) *openLoopRun {
	t.Helper()
	world := &bankWorld{balance: map[string]int{}}
	cfg.Registry = bankRegistry()
	cfg.Setup = bankSetup(world)
	if cfg.Net.MaxDelay == 0 {
		cfg.Net.MaxDelay = 200 * time.Microsecond
	}
	cfg.Seed = seed
	// Building runs nothing, so the clock cannot run ahead of the test:
	// fault injections and the drive are scheduled from time zero.
	c := NewCluster(cfg)
	t.Cleanup(c.Stop)
	clk := c.Clock()

	r := &openLoopRun{c: c, st: c.OpenStation()}
	// Settle: the zero-length sleep fires only once every goroutine the
	// cluster and the station started has reached its first wait, so their
	// first timers are scheduled before anything the test counts.
	clk.Sleep(0)
	for _, a := range workload.GenerateOpenLoop(spec, seed) {
		r.ats = append(r.ats, a.At)
		r.reqs = append(r.reqs, a.Req)
	}
	return r
}

// drive runs the schedule to completion from the test goroutine and
// returns the completed count.
func (r *openLoopRun) drive() int {
	return r.st.Drive(r.ats, r.reqs)
}

// stationPin is what the fault-path tests pin byte for byte: the drive's
// completed count, the station's completion log (requests, replies and
// latencies in completion order, as an FNV-64a digest), its submit
// attempts, the clock events scheduled during the drive and the clock's
// reading when Drive returned.
type stationPin struct {
	completed int
	log       uint64
	attempts  int
	events    uint64
	now       time.Duration
}

// drivePinned is drive, read into a stationPin.
func (r *openLoopRun) drivePinned() stationPin {
	clk := r.c.Clock()
	before := clk.Events()
	p := stationPin{completed: r.drive()}
	p.events, p.now = clk.Events()-before, clk.Now()
	p.attempts = r.st.Attempts()
	reqs, replies := r.st.Log()
	h := fnv.New64a()
	for i, lat := range r.st.Latencies() {
		fmt.Fprintf(h, "%s=%s@%d;", reqs[i].ID, replies[i], lat)
	}
	p.log = h.Sum64()
	return p
}

// check is the verifier's report under the concurrent relaxation.
func (r *openLoopRun) check() verify.Report {
	r.c.Net.Quiesce()
	logReqs, logReplies := r.st.Log()
	return verify.Check(verify.Run{
		Registry:       bankRegistry(),
		Requests:       logReqs,
		Replies:        logReplies,
		History:        r.c.Observer.History(),
		SubmitAttempts: r.st.Attempts(),
		Concurrent:     true,
	})
}

// driveOpenLoop runs an open-loop workload against a freshly assembled
// bank cluster and returns the completed count and the verifier's report
// under the concurrent relaxation.
func driveOpenLoop(t *testing.T, cfg ClusterConfig, spec workload.OpenLoopSpec, seed int64) (int, verify.Report) {
	t.Helper()
	r := newOpenLoopRun(t, cfg, spec, seed)
	n := r.drive()
	return n, r.check()
}

func TestOpenLoopUnbatched(t *testing.T) {
	spec := workload.OpenLoopSpec{Clients: 100, Rate: 50_000, Duration: 4 * time.Millisecond, Accounts: 8}
	n, rep := driveOpenLoop(t, ClusterConfig{Replicas: 3}, spec, 11)
	if n == 0 {
		t.Fatal("no open-loop sessions completed")
	}
	if !rep.OK() {
		t.Errorf("open-loop run failed verification: %+v", rep)
	}
}

func TestOpenLoopBatched(t *testing.T) {
	spec := workload.OpenLoopSpec{Clients: 100, Rate: 50_000, Duration: 4 * time.Millisecond, Accounts: 8}
	cfg := ClusterConfig{
		Replicas: 3,
		Batch:    BatchConfig{Enabled: true, MaxSize: 16, Window: 100 * time.Microsecond, Pipeline: 4},
	}
	n, rep := driveOpenLoop(t, cfg, spec, 12)
	if n == 0 {
		t.Fatal("no open-loop sessions completed")
	}
	if !rep.OK() {
		t.Errorf("batched open-loop run failed verification: %+v", rep)
	}
}

func TestOpenLoopBatchedWithCosts(t *testing.T) {
	spec := workload.OpenLoopSpec{Clients: 100, Rate: 20_000, Duration: 4 * time.Millisecond, Accounts: 8}
	cfg := ClusterConfig{
		Replicas: 3,
		Batch:    BatchConfig{Enabled: true, MaxSize: 16, Window: 100 * time.Microsecond, Pipeline: 8},
		Costs:    CostModel{Consensus: 20 * time.Microsecond, Exec: 5 * time.Microsecond},
	}
	n, rep := driveOpenLoop(t, cfg, spec, 13)
	if n == 0 {
		t.Fatal("no open-loop sessions completed")
	}
	if !rep.OK() {
		t.Errorf("charged batched open-loop run failed verification: %+v", rep)
	}
}

// t11Costs is T11's tariff (internal/exper): the scaling gate below is
// stated against the saturation experiment's own cost model.
var t11Costs = CostModel{Consensus: 20 * time.Microsecond, Exec: 5 * time.Microsecond}

// TestOpenLoopEventsPerRequest gates the scaling of the open-loop plane in
// clock events, not wall time, so it holds on any host: deep in overload
// (80k and 160k arrivals per virtual second against ≈21k and ≈100k of
// capacity, over a window long enough for >1000 sessions to pile up) a
// request must cost a bounded number of scheduled events. When every reply
// woke every in-flight session and every CPU release woke every queued
// contender, these two runs cost 5653 and 2131 events per request; with
// per-session wake-ups and the busy-until CPU they cost 251 and 50 (what
// remains is each session's own 200µs suspicion poll). The unbatched 251
// was 242 until vclock.Go started its goroutine as an event of its own:
// the ≈9.2 spawns per request below are each one event more.
//
// The same runs bound the goroutines the clock spawns per request. A
// session runs on the pump, so what remains is the servers' own: in the
// unbatched plane one per submit a replica accepts (≈9.2 at this load,
// re-sends included), in the batched plane almost none. A goroutine per
// session again adds one to both.
func TestOpenLoopEventsPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name        string
		batch       BatchConfig
		rate        float64
		limit       uint64
		spawnsLimit float64
	}{
		{"unbatched", BatchConfig{}, 80_000, 400, 9.5},
		{"batched+pipelined", BatchConfig{Enabled: true, MaxSize: 16, Window: 100 * time.Microsecond, Pipeline: 8}, 160_000, 100, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := workload.OpenLoopSpec{Clients: 400, Rate: tc.rate, Duration: 16 * time.Millisecond, Accounts: 8}
			r := newOpenLoopRun(t, ClusterConfig{Replicas: 3, Batch: tc.batch, Costs: t11Costs}, spec, 1)
			clk := r.c.Clock()
			before, spawnsBefore := clk.Events(), clk.Spawns()
			if n := r.drive(); n != len(r.reqs) {
				t.Fatalf("%d of %d sessions completed", n, len(r.reqs))
			}
			perReq := (clk.Events() - before) / uint64(len(r.reqs))
			spawnsPerReq := float64(clk.Spawns()-spawnsBefore) / float64(len(r.reqs))
			t.Logf("%d requests, %d clock events and %.3f goroutine spawns per request", len(r.reqs), perReq, spawnsPerReq)
			if perReq > tc.limit {
				t.Errorf("%d clock events per request, want ≤ %d: something on the run path does work proportional to the sessions in flight", perReq, tc.limit)
			}
			if spawnsPerReq > tc.spawnsLimit {
				t.Errorf("%.3f goroutine spawns per request, want ≤ %.1f: a session has a goroutine of its own again", spawnsPerReq, tc.spawnsLimit)
			}
			if rep := r.check(); !rep.OK() {
				t.Errorf("run failed verification: %+v", rep)
			}
		})
	}
}

// TestOpenLoopContactedReplicaCrash crashes the replica every session
// contacts first while sessions are in flight: each must fail over on its
// own suspicion poll and complete, exactly once. The run is pinned byte
// for byte (completion log, attempts, failovers, clock events, final
// reading): the fault-free golden rows never take the failover path.
func TestOpenLoopContactedReplicaCrash(t *testing.T) {
	m := obs.NewMetrics()
	cfg := ClusterConfig{Replicas: 3, Net: simnet.Config{Metrics: m}}
	spec := workload.OpenLoopSpec{Clients: 100, Rate: 50_000, Duration: 4 * time.Millisecond, Accounts: 8}
	r := newOpenLoopRun(t, cfg, spec, 14)
	r.c.Clock().GoAfter(2*time.Millisecond, func() { r.c.CrashServer(0) })
	got := r.drivePinned()
	if got.completed != len(r.reqs) {
		t.Fatalf("%d of %d sessions completed across the crash", got.completed, len(r.reqs))
	}
	// events was 3 705 until vclock.Go started its goroutine as an event of
	// its own: every spawn during the drive is one event more. It was 3 921,
	// with 321 attempts and 110 failovers, until the network drew every
	// delay from one stream and the cleaners stopped offsetting their first
	// pass: each message's delay moved, and with them the log and the final
	// reading. Every session still completes exactly once.
	want := stationPin{completed: 211, log: 0x94cc0d212fe989e8, attempts: 320, events: 3906, now: 4204804 * time.Nanosecond}
	if got != want {
		t.Errorf("station run = %+v, want %+v", got, want)
	}
	if fo := m.Snapshot().Counters[obs.ReqFailovers]; fo != 109 {
		t.Errorf("%d failovers, want 109", fo)
	}
	if rep := r.check(); !rep.OK() {
		t.Errorf("run failed verification: %+v", rep)
	}
}

// TestOpenLoopNetworkClosedInFlight closes the network under in-flight
// sessions: the stop path must wake every one of them (none is left parked
// until its poll), Drive must return short, and nothing may stay attached
// to the clock. The run is pinned byte for byte like the crash above.
func TestOpenLoopNetworkClosedInFlight(t *testing.T) {
	spec := workload.OpenLoopSpec{Clients: 100, Rate: 50_000, Duration: 4 * time.Millisecond, Accounts: 8}
	r := newOpenLoopRun(t, ClusterConfig{Replicas: 3, Costs: t11Costs}, spec, 15)
	clk := r.c.Clock()
	clk.GoAfter(2*time.Millisecond, r.c.Stop)
	got := r.drivePinned()
	if n := got.completed; n == 0 || n >= len(r.reqs) {
		t.Fatalf("%d of %d sessions completed, want some but not all (the close must land mid-flight)", n, len(r.reqs))
	}
	// events was 1 663 until a Go spawn became an event, and 1 748 with 24
	// completed until the delays came from one stream per network (see
	// above): one session fewer finishes before the close.
	want := stationPin{completed: 23, log: 0x3c0ce228b8537ddf, attempts: 92, events: 1736, now: 2 * time.Millisecond}
	if got != want {
		t.Errorf("station run = %+v, want %+v", got, want)
	}
	// Sleepers unwind as their timers fire; give them virtual time.
	clk.Sleep(50 * time.Millisecond)
	if rep := clk.Stop(); rep.Leaked != 0 {
		t.Errorf("after the close: %v", rep)
	}
}
