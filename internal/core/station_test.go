package core

import (
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
	c := NewCluster(cfg)
	t.Cleanup(c.Stop)

	r := &openLoopRun{c: c, st: c.OpenStation()}
	for _, a := range workload.GenerateOpenLoop(spec, seed) {
		r.ats = append(r.ats, a.At)
		r.reqs = append(r.reqs, a.Req)
	}
	return r
}

// drive runs the schedule to completion from the test goroutine and
// returns the completed count.
func (r *openLoopRun) drive() int {
	clk := r.c.Clock()
	clk.Enter()
	defer clk.Exit()
	return r.st.Drive(r.ats, r.reqs)
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
// per-session wake-ups and the busy-until CPU they cost 242 and 50 (what
// remains is each session's own 200µs suspicion poll).
func TestOpenLoopEventsPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch BatchConfig
		rate  float64
		limit uint64
	}{
		{"unbatched", BatchConfig{}, 80_000, 400},
		{"batched+pipelined", BatchConfig{Enabled: true, MaxSize: 16, Window: 100 * time.Microsecond, Pipeline: 8}, 160_000, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := workload.OpenLoopSpec{Clients: 400, Rate: tc.rate, Duration: 16 * time.Millisecond, Accounts: 8}
			r := newOpenLoopRun(t, ClusterConfig{Replicas: 3, Batch: tc.batch, Costs: t11Costs}, spec, 1)
			clk := r.c.Clock()
			before := clk.Events()
			if n := r.drive(); n != len(r.reqs) {
				t.Fatalf("%d of %d sessions completed", n, len(r.reqs))
			}
			perReq := (clk.Events() - before) / uint64(len(r.reqs))
			t.Logf("%d requests, %d clock events per request", len(r.reqs), perReq)
			if perReq > tc.limit {
				t.Errorf("%d clock events per request, want ≤ %d: something on the run path does work proportional to the sessions in flight", perReq, tc.limit)
			}
			if rep := r.check(); !rep.OK() {
				t.Errorf("run failed verification: %+v", rep)
			}
		})
	}
}

// TestOpenLoopContactedReplicaCrash crashes the replica every session
// contacts first while sessions are in flight: each must fail over on its
// own suspicion poll and complete, exactly once.
func TestOpenLoopContactedReplicaCrash(t *testing.T) {
	m := obs.NewMetrics()
	cfg := ClusterConfig{Replicas: 3, Net: simnet.Config{Metrics: m}}
	spec := workload.OpenLoopSpec{Clients: 100, Rate: 50_000, Duration: 4 * time.Millisecond, Accounts: 8}
	r := newOpenLoopRun(t, cfg, spec, 14)
	r.c.Clock().GoAfter(2*time.Millisecond, func() { r.c.CrashServer(0) })
	if n := r.drive(); n != len(r.reqs) {
		t.Fatalf("%d of %d sessions completed across the crash", n, len(r.reqs))
	}
	if rep := r.check(); !rep.OK() {
		t.Errorf("run failed verification: %+v", rep)
	}
	if got := m.Snapshot().Counters[obs.ReqFailovers]; got == 0 {
		t.Error("no session failed over: the crash hit no in-flight session")
	}
}

// TestOpenLoopNetworkClosedInFlight closes the network under in-flight
// sessions: the stop path must wake every one of them (none is left parked
// on its own cond), Drive must return short, and nothing may stay attached
// to the clock.
func TestOpenLoopNetworkClosedInFlight(t *testing.T) {
	spec := workload.OpenLoopSpec{Clients: 100, Rate: 50_000, Duration: 4 * time.Millisecond, Accounts: 8}
	r := newOpenLoopRun(t, ClusterConfig{Replicas: 3, Costs: t11Costs}, spec, 15)
	clk := r.c.Clock()
	clk.GoAfter(2*time.Millisecond, r.c.Stop)
	n := r.drive()
	if n == 0 || n >= len(r.reqs) {
		t.Fatalf("%d of %d sessions completed, want some but not all (the close must land mid-flight)", n, len(r.reqs))
	}
	// Sleepers unwind as their timers fire; give them virtual time.
	clk.Sleep(50 * time.Millisecond)
	if rep := clk.Stop(); rep.Leaked != 0 {
		t.Errorf("after the close: %v", rep)
	}
}
