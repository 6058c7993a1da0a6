package core

import (
	"fmt"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/sm"
	"xability/internal/verify"
)

// bankWorld is the test service: an env-backed account store with an
// idempotent read, a non-deterministic idempotent token generator, and an
// undoable debit.
type bankWorld struct {
	balance map[string]int
}

func (w *bankWorld) get(acct string) int { return w.balance[acct] }

func bankRegistry() *action.Registry {
	reg := action.NewRegistry()
	reg.MustRegister("read", action.KindIdempotent)
	reg.MustRegister("token", action.KindIdempotent)
	reg.MustRegister("debit", action.KindUndoable)
	return reg
}

// bankSetup returns a Setup function closing over a shared world.
func bankSetup(w *bankWorld) func(m *sm.Machine) {
	return func(m *sm.Machine) {
		mustNoErr(m.HandleIdempotent("read", func(ctx *sm.Ctx) action.Value {
			return action.Value(fmt.Sprintf("%d", w.balance[string(ctx.Req.Input)]))
		}))
		mustNoErr(m.HandleIdempotent("token", func(ctx *sm.Ctx) action.Value {
			// Non-deterministic: each execution draws a fresh token; the
			// environment's resolve-once semantics fixes the first.
			return action.Value(fmt.Sprintf("tok-%d", ctx.Rand.Int63()))
		}))
		mustNoErr(m.HandleUndoable("debit",
			func(ctx *sm.Ctx) action.Value {
				w.balance[string(ctx.Req.Input)] -= 10
				return "debited"
			},
			func(ctx *sm.Ctx) {
				w.balance[string(ctx.Req.Input)] += 10
			}))
	}
}

func mustNoErr(err error) {
	if err != nil {
		panic(err)
	}
}

type testCluster struct {
	*Cluster
	world *bankWorld
}

func newBankCluster(t testing.TB, cfg ClusterConfig) *testCluster {
	t.Helper()
	world := &bankWorld{balance: map[string]int{"acct": 100}}
	cfg.Registry = bankRegistry()
	cfg.Setup = bankSetup(world)
	if cfg.Net.MaxDelay == 0 {
		cfg.Net.MaxDelay = 200 * time.Microsecond
	}
	c := NewCluster(cfg)
	t.Cleanup(c.Stop)
	return &testCluster{Cluster: c, world: world}
}

// checkRun runs the verifier over the cluster's client log and observer
// history.
func (tc *testCluster) checkRun(t *testing.T) verify.Report {
	t.Helper()
	tc.Net.Quiesce()
	reqs, replies := tc.Client.Log()
	rep := verify.Check(verify.Run{
		Registry:       bankRegistry(),
		Requests:       reqs,
		Replies:        replies,
		History:        tc.Observer.History(),
		SubmitAttempts: tc.Client.Attempts(),
	})
	if !rep.OK() {
		t.Errorf("run verification failed: %+v\nhistory:\n%v", rep, tc.Observer.History())
	}
	return rep
}

func TestNiceRunIdempotent(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 1})
	v := tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct"))
	if v != "100" {
		t.Errorf("read = %q, want 100", v)
	}
	rep := tc.checkRun(t)
	if !rep.R3Strict {
		t.Error("nice run should satisfy strict R3")
	}
}

func TestNiceRunUndoable(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 2})
	v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	if v != "debited" {
		t.Errorf("debit = %q", v)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90 (exactly one debit)", got)
	}
	rep := tc.checkRun(t)
	if !rep.R3Strict {
		t.Error("nice run should satisfy strict R3")
	}
	if n := tc.Env.InForceTotal("debit", "acct"); n != 1 {
		t.Errorf("in-force debit effects = %d, want 1", n)
	}
}

func TestNiceRunSequence(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 3})
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct")); v != "90" {
		t.Errorf("read after debit = %q, want 90", v)
	}
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
		t.Fatalf("second debit = %q", v)
	}
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct")); v != "80" {
		t.Errorf("read after second debit = %q, want 80", v)
	}
	rep := tc.checkRun(t)
	if !rep.R3Strict {
		t.Error("sequential nice run should satisfy strict R3")
	}
}

func TestCrashBeforeDelivery(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 4})
	tc.CrashServer(0) // the client contacts replica-0 first
	v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	if v != "debited" {
		t.Errorf("debit = %q", v)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90", got)
	}
	if tc.Client.Attempts() < 2 {
		t.Error("client should have retried after suspecting the crashed replica")
	}
	tc.checkRun(t)
}

func TestCrashDuringExecution(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 5})
	// Make the action fail repeatedly so replica-0 is stuck retrying when
	// it crashes; a cleaner must cancel round 1 and run a later round.
	tc.Env.SetFailures("debit", 1.0, 8, 0)

	clk := tc.Clock()
	clk.Go(func() {
		clk.Sleep(3 * time.Millisecond) // let replica-0 start and hit failures
		tc.CrashServer(0)
		tc.ClientSuspect("replica-0", true)
	})

	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
		t.Errorf("debit = %q", v)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90 (exactly-once across crash+retry)", got)
	}
	if n := tc.Env.InForceTotal("debit", "acct"); n != 1 {
		t.Errorf("in-force debit effects = %d, want 1", n)
	}
	tc.checkRun(t)
}

func TestFalseSuspicionIdempotent(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 6})
	// Slow the owner down with injected failures, then make replica-1
	// falsely suspect replica-0: both end up executing (active flavor).
	tc.Env.SetFailures("token", 1.0, 5, 0)
	clk := tc.Clock()
	clk.Go(func() {
		clk.Sleep(2 * time.Millisecond)
		tc.Suspect("replica-1", "replica-0", true)
	})

	v := tc.Client.SubmitUntilSuccess(action.NewRequest("token", "t1"))
	if v == "" || v == EmptyResult {
		t.Fatalf("token = %q", v)
	}
	tc.checkRun(t)
}

func TestFalseSuspicionUndoable(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 7})
	tc.Env.SetFailures("debit", 1.0, 5, 0)
	clk := tc.Clock()
	clk.Go(func() {
		clk.Sleep(2 * time.Millisecond)
		tc.Suspect("replica-1", "replica-0", true)
		tc.Suspect("replica-2", "replica-0", true)
	})

	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	tc.Net.Quiesce()
	tc.waitFor(t, 5*time.Second, func() bool { return tc.world.get("acct") == 90 })
	if n := tc.Env.InForceTotal("debit", "acct"); n != 1 {
		t.Errorf("in-force debit effects = %d, want 1 (cancelled rounds rolled back)", n)
	}
	tc.checkRun(t)
}

func TestActionFailuresRetryToSuccess(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 8})
	// Failures both before and after the effect: execute-until-success
	// must cancel and retry undoable actions (Figure 7).
	tc.Env.SetFailures("debit", 0.7, 6, 0.5)
	v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	if v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	tc.waitFor(t, 5*time.Second, func() bool { return tc.world.get("acct") == 90 })
	tc.checkRun(t)
}

func TestCommitAndCancelFailuresRetry(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 9})
	tc.Env.SetFailures(action.Commit("debit"), 0.8, 4, 0)
	tc.Env.SetFailures(action.Cancel("debit"), 0.8, 4, 0)
	tc.Env.SetFailures("debit", 0.6, 4, 0.5)
	v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	if v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	tc.waitFor(t, 5*time.Second, func() bool { return tc.world.get("acct") == 90 })
	tc.checkRun(t)
}

func TestResubmissionIsIdempotentR1(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 10})
	req := tc.Client.Tag(action.NewRequest("debit", "acct"))
	v1, err := tc.Client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Re-submit the same tagged request: the reply must repeat and the
	// effect must not duplicate (R1).
	v2, err := tc.Client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("re-submission reply %q differs from original %q", v2, v1)
	}
	tc.waitFor(t, 5*time.Second, func() bool { return tc.world.get("acct") == 90 })
	if n := tc.Env.InForceTotal("debit", "acct"); n != 1 {
		t.Errorf("in-force effects after re-submission = %d, want 1", n)
	}
}

func TestCTConsensusNiceRun(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 11, Consensus: ConsensusCT})
	v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	if v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	tc.waitFor(t, 5*time.Second, func() bool { return tc.world.get("acct") == 90 })
	tc.checkRun(t)
}

func TestCTConsensusCrash(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 12, Consensus: ConsensusCT})
	tc.CrashServer(0)
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct")); v != "100" {
		t.Errorf("read = %q, want 100", v)
	}
	tc.checkRun(t)
}

func TestHeartbeatDetectorCrash(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{
		Replicas:          3,
		Seed:              13,
		Detector:          DetectorHeartbeat,
		HeartbeatInterval: time.Millisecond,
	})
	tc.CrashServer(0)
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct")); v != "100" {
		t.Errorf("read = %q", v)
	}
	tc.checkRun(t)
}

func TestManySequentialRequests(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 14})
	for i := 0; i < 8; i++ {
		if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
			t.Fatalf("debit %d = %q", i, v)
		}
	}
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct")); v != "20" {
		t.Errorf("final read = %q, want 20", v)
	}
	rep := tc.checkRun(t)
	if !rep.R3Strict {
		t.Error("sequential requests without failures should satisfy strict R3")
	}
}

func TestSpectrumDuplicationUnderSuspicion(t *testing.T) {
	// §5.1's run-time spectrum: without suspicion exactly one replica
	// executes; with aggressive suspicion several do. The event history
	// shows it via duplicate start events.
	nice := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 15})
	nice.Client.SubmitUntilSuccess(action.NewRequest("token", "t"))
	nice.Net.Quiesce()
	niceStarts := countStarts(nice, "token")
	if niceStarts != 1 {
		t.Errorf("nice run: %d executions of token, want 1 (primary-backup flavor)", niceStarts)
	}

	busy := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 16})
	busy.Env.SetFailures("token", 1.0, 6, 0)
	clk := busy.Clock()
	clk.Go(func() {
		clk.Sleep(2 * time.Millisecond)
		busy.Suspect("replica-1", "replica-0", true)
		busy.Suspect("replica-2", "replica-0", true)
	})
	busy.Client.SubmitUntilSuccess(action.NewRequest("token", "t"))
	busy.Net.Quiesce()
	if got := countStarts(busy, "token"); got < 2 {
		t.Errorf("suspicious run: %d executions of token, want ≥ 2 (active flavor)", got)
	}
	busy.checkRun(t)
}

func countStarts(tc *testCluster, a action.Name) int {
	n := 0
	for _, e := range tc.Observer.History() {
		if e.Type == 0 && e.Action == a { // event.Start
			n++
		}
	}
	return n
}

// waitFor sleeps on the cluster's clock, a millisecond at a time, until
// cond holds; it fails the test once d of virtual time has passed.
func (tc *testCluster) waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	clk := tc.Clock()
	deadline := clk.Now() + d
	for !cond() {
		if clk.Now() >= deadline {
			t.Fatal("condition not reached in time")
		}
		clk.Sleep(time.Millisecond)
	}
}
