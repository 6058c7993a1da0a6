package xability_test

import (
	"strings"
	"testing"
	"time"

	"xability"
)

func TestFacadeQuickstart(t *testing.T) {
	reg := xability.NewRegistry()
	reg.MustRegister("greet", xability.Idempotent)

	svc := xability.NewService(xability.ServiceConfig{
		Replicas: 3,
		Seed:     1,
		Registry: reg,
		Setup: func(m *xability.Machine) {
			if err := m.HandleIdempotent("greet", func(ctx *xability.Ctx) xability.Value {
				return "hello, " + ctx.Req.Input
			}); err != nil {
				t.Error(err)
			}
		},
	})
	defer svc.Close()

	reply := svc.Call(xability.NewRequest("greet", "world"))
	if reply != "hello, world" {
		t.Errorf("reply = %q", reply)
	}
	rep := svc.Verify(reg)
	if !rep.OK() || !rep.R3Strict {
		t.Errorf("verification failed: %+v", rep)
	}
	if len(svc.History()) == 0 {
		t.Error("no events observed")
	}
}

// TestFacadeIdleServiceStaysFrozen pins the facade's clock rule: the
// world moves only while a call waits on it. A service with heartbeat
// detectors left idle for wall time has sent nothing and stands at virtual
// time zero when its first Call arrives, and the Call's latency and message
// count are those of the request alone, the same on every run at any
// GOMAXPROCS. (A clock that kept pumping after a call returned ran the
// heartbeats in the background instead: seconds of virtual time and tens
// of thousands of messages in 20ms of wall time, different on every run.)
func TestFacadeIdleServiceStaysFrozen(t *testing.T) {
	reg := xability.NewRegistry()
	reg.MustRegister("greet", xability.Idempotent)
	cfg := xability.ServiceConfig{
		Replicas: 3,
		Seed:     7,
		Registry: reg,
		Detector: xability.DetectorHeartbeat,
		Setup: func(m *xability.Machine) {
			if err := m.HandleIdempotent("greet", func(ctx *xability.Ctx) xability.Value {
				return "hello, " + ctx.Req.Input
			}); err != nil {
				t.Error(err)
			}
		},
	}
	cfg.Net.MaxDelay = 200 * time.Microsecond
	svc := xability.NewService(cfg)
	defer svc.Close()

	time.Sleep(20 * time.Millisecond) // idle in wall time
	clk := svc.Clock()
	if now, sent := clk.Now(), svc.Cluster().Net.TotalSent(); now != 0 || sent != 0 {
		t.Fatalf("idle service moved: Now = %v, %d messages sent before the first Call", now, sent)
	}
	if reply := svc.Call(xability.NewRequest("greet", "world")); reply != "hello, world" {
		t.Fatalf("reply = %q", reply)
	}
	const wantLat, wantSent = 186970 * time.Nanosecond, 9
	if lat, sent := clk.Now(), svc.Cluster().Net.TotalSent(); lat != wantLat || sent != wantSent {
		t.Errorf("Call took %v of virtual time and %d messages, want %v and %d", lat, sent, wantLat, wantSent)
	}
}

func TestFacadeCheckerRoundTrip(t *testing.T) {
	reg := xability.NewRegistry()
	reg.MustRegister("ship", xability.Undoable)
	req := xability.NewRequest("ship", "order-1").WithID("q").WithRound(1)

	ff, err := xability.EventsOf(reg, req, "shipped")
	if err != nil {
		t.Fatal(err)
	}
	if len(ff) != 4 {
		t.Fatalf("undoable eventsof = %v", ff)
	}
	chk := xability.NewChecker(reg)
	spec, err := xability.SpecFor(reg, xability.NewRequest("ship", "order-1").WithID("q"))
	if err != nil {
		t.Fatal(err)
	}
	ok, outs := chk.XAbleTo(ff, []xability.TargetSpec{spec})
	if !ok || outs[0] != "shipped" {
		t.Errorf("XAbleTo = (%v, %v)", ok, outs)
	}
}

func TestFacadeDerivedNames(t *testing.T) {
	if !strings.HasPrefix(string(xability.Cancel("a")), "a") {
		t.Error("cancel name should derive from the base name")
	}
	if xability.Cancel("a") == xability.Commit("a") {
		t.Error("cancel and commit must differ")
	}
	if xability.Nil == "" {
		t.Error("Nil must be distinguishable from the empty value")
	}
}

func TestFacadeEventConstructors(t *testing.T) {
	h := xability.History{xability.S("a", "1"), xability.C("a", "2")}
	if err := h.WellFormed(); err != nil {
		t.Error(err)
	}
}

// TestFacadeApplyPlan drives a service through a declarative fault plan:
// the round-1 owner crashes mid-execution and the service must still
// answer exactly once.
func TestFacadeApplyPlan(t *testing.T) {
	reg := xability.NewRegistry()
	reg.MustRegister("charge", xability.Undoable)

	svc := xability.NewService(xability.ServiceConfig{
		Replicas: 3,
		Seed:     11,
		Registry: reg,
		Setup: func(m *xability.Machine) {
			if err := m.HandleUndoable("charge",
				func(ctx *xability.Ctx) xability.Value { return "charged" },
				nil); err != nil {
				t.Error(err)
			}
		},
	})
	defer svc.Close()

	// Stretch the execution so the crash lands mid-run.
	svc.Environment().SetFailures("charge", 1.0, 6, 0)
	svc.Apply(xability.NewPlan().CrashAt(2*time.Millisecond, 0))
	reply := svc.Call(xability.NewRequest("charge", "card-1"))

	if reply != "charged" {
		t.Errorf("reply = %q", reply)
	}
	rep := svc.Verify(reg)
	if !rep.OK() {
		t.Errorf("crash-failover run failed verification: %+v", rep)
	}
	if got := svc.Environment().InForceTotal("charge", "card-1"); got != 1 {
		t.Errorf("effects in force = %d, want exactly 1", got)
	}
}

// TestFacadeScenarioRegistryAndSweep exercises the public scenario surface:
// named lookup, single runs, and a small parallel sweep.
func TestFacadeScenarioRegistryAndSweep(t *testing.T) {
	names := xability.ScenarioNames()
	if len(names) == 0 {
		t.Fatal("no builtin scenarios registered")
	}
	sc, ok := xability.ScenarioByName("crash-failover")
	if !ok {
		t.Fatal("crash-failover not registered")
	}
	if o := xability.RunScenario(sc, 42); !o.XAble || !o.Replied {
		t.Errorf("crash-failover run: %+v", o)
	}
	d := xability.Sweep(sc, xability.SweepSeeds(1, 16), 4)
	if d.Runs != 16 || d.XAbleRate() != 1.0 {
		t.Errorf("sweep distribution: %+v", d)
	}
	if err := xability.RegisterScenario(sc); err == nil {
		t.Error("duplicate scenario registration succeeded")
	}
}

// TestFacadeRecordReplayShrink exercises the debugging layer end to end
// through the public API: record a failing baseline seed, replay it
// verbatim to the same verdict, and shrink it to a minimal counterexample.
func TestFacadeRecordReplayShrink(t *testing.T) {
	sc, ok := xability.ScenarioByName("pb-crash-failover")
	if !ok {
		t.Fatal("pb-crash-failover not registered")
	}
	log := xability.NewScheduleLog()
	rec := xability.RunScenarioTraced(sc, 1, log, nil)
	if rec.XAble {
		t.Fatalf("pb-crash-failover should fail: %+v", rec)
	}
	if log.Len() == 0 {
		t.Fatal("no schedule recorded")
	}
	rep := xability.RunScenarioTraced(sc, 1, nil, &xability.Replay{Log: log})
	if rep.XAble != rec.XAble || rep.EffectsInForce != rec.EffectsInForce {
		t.Errorf("verbatim replay diverged: %+v vs %+v", rep, rec)
	}

	mt, err := xability.Shrink(sc, 1, xability.ShrinkOptions{})
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if !mt.Minimal || mt.Deliveries >= mt.BaseDeliveries {
		t.Errorf("shrink did not minimize: %+v", mt)
	}
	if o := xability.RunScenarioTraced(sc, 1, nil, mt.Replay()); o.XAble {
		t.Errorf("minimal trace no longer fails: %+v", o)
	}
	if !strings.Contains(mt.Outcome.Counterexample, "minimal counterexample") {
		t.Errorf("missing rendering:\n%s", mt.Outcome.Counterexample)
	}

	// The sweep knob attaches counterexamples (the root package links the
	// shrinker).
	d := xability.SweepWithOptions(sc, xability.SweepSeeds(1, 4), xability.SweepOptions{ShrinkFailing: true})
	if len(d.Counterexamples) != 3 {
		t.Errorf("sweep counterexamples = %d, want 3 (the bound) of 4 failing seeds", len(d.Counterexamples))
	}
}

// TestFacadeShardedService drives the sharding plane through the public
// facade: a 4-group deployment, routed calls (single and batched), a
// correlated fault via Apply, and the merged verification.
func TestFacadeShardedService(t *testing.T) {
	reg := xability.NewRegistry()
	reg.MustRegister("put", xability.Idempotent)

	svc := xability.NewShardedService(xability.ShardedConfig{
		Shards: 4,
		Group:  xability.ServiceConfig{Replicas: 3, Seed: 5, Registry: reg},
		Setup: func(shard int) func(m *xability.Machine) {
			return func(m *xability.Machine) {
				if err := m.HandleIdempotent("put", func(ctx *xability.Ctx) xability.Value {
					return "ok:" + ctx.Req.Input
				}); err != nil {
					t.Error(err)
				}
			}
		},
	})
	defer svc.Close()

	if svc.Shards() != 4 {
		t.Fatalf("Shards = %d", svc.Shards())
	}
	if v := svc.Call(xability.NewRequest("put", "k1")); v != "ok:k1" {
		t.Fatalf("Call = %q", v)
	}

	var batch []xability.Request
	for _, k := range []string{"k2", "k3", "k4", "k5", "k6", "k7"} {
		batch = append(batch, xability.NewRequest("put", xability.Value(k)))
	}
	// A correlated crash of every group's replica 2 mid-batch: the
	// remaining majorities keep every shard serving.
	svc.Apply(xability.NewPlan().CrashAt(time.Millisecond, 2))
	replies, ok := svc.CallAll(batch)
	if !ok {
		t.Fatalf("CallAll left requests unanswered: %v", replies)
	}
	for i, v := range replies {
		if v != xability.Value("ok:"+batch[i].Input) {
			t.Errorf("reply %d = %q", i, v)
		}
	}

	rep := svc.Verify(reg)
	if !rep.OK() || !rep.XAble() {
		t.Fatalf("merged verification failed: %+v", rep)
	}
	if len(rep.Shards) != 4 {
		t.Errorf("per-shard reports = %d", len(rep.Shards))
	}
	// Routing is a pure function of the key: ShardOf agrees with where
	// history shows up.
	owner := svc.ShardOf(xability.NewRequest("put", "k1"))
	if h := svc.History(owner); len(h) == 0 {
		t.Errorf("owner shard %d has an empty history", owner)
	}
}
