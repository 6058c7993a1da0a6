package env

import (
	"errors"
	"testing"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/trace"
)

func newEnv() (*Env, *trace.Observer) {
	obs := trace.New()
	return New(obs, 1), obs
}

func TestIdempotentResolveOnce(t *testing.T) {
	e, obs := newEnv()
	calls := 0
	eff := func() action.Value { calls++; return action.Value(rune('a' + calls)) }
	v1, err := e.ExecIdempotent("tok", "k", eff)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.ExecIdempotent("tok", "k", eff)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("resolve-once violated: %q vs %q", v1, v2)
	}
	if calls != 1 {
		t.Errorf("effect ran %d times, want 1", calls)
	}
	if e.Applied("tok", "k") != 1 || e.InForce("tok", "k") != 1 {
		t.Errorf("audit: applied=%d inforce=%d", e.Applied("tok", "k"), e.InForce("tok", "k"))
	}
	// Both executions emitted completion events with the same value.
	h := obs.History()
	if len(h) != 2 || !h[0].Equal(event.C("tok", v1)) || !h[1].Equal(event.C("tok", v1)) {
		t.Errorf("history = %v", h)
	}
}

func TestIdempotentDistinctInputs(t *testing.T) {
	e, _ := newEnv()
	v1, _ := e.ExecIdempotent("tok", "k1", func() action.Value { return "a" })
	v2, _ := e.ExecIdempotent("tok", "k2", func() action.Value { return "b" })
	if v1 == v2 {
		t.Error("different inputs must resolve independently")
	}
}

func TestUndoableLifecycle(t *testing.T) {
	e, obs := newEnv()
	ep := e.ReactivateUndoable("debit", "iv")
	v, err := e.ExecUndoable("debit", "iv", ep, func() action.Value { return "done" })
	if err != nil || v != "done" {
		t.Fatalf("exec = (%q, %v)", v, err)
	}
	if err := e.CommitUndoable("debit", "iv"); err != nil {
		t.Fatal(err)
	}
	if e.InForce("debit", "iv") != 1 {
		t.Errorf("in force = %d", e.InForce("debit", "iv"))
	}
	// Commit is idempotent.
	if err := e.CommitUndoable("debit", "iv"); err != nil {
		t.Errorf("second commit: %v", err)
	}
	h := obs.History()
	if len(h) != 3 { // C(debit), C(commit), C(commit)
		t.Errorf("history = %v", h)
	}
}

func TestUndoableCancelRollsBack(t *testing.T) {
	e, _ := newEnv()
	rolledBack := false
	ep := e.ReactivateUndoable("debit", "iv")
	if _, err := e.ExecUndoable("debit", "iv", ep, func() action.Value { return "x" }); err != nil {
		t.Fatal(err)
	}
	if err := e.CancelUndoable("debit", "iv", func() { rolledBack = true }); err != nil {
		t.Fatal(err)
	}
	if !rolledBack {
		t.Error("rollback hook not invoked")
	}
	if e.InForce("debit", "iv") != 0 {
		t.Errorf("in force after cancel = %d", e.InForce("debit", "iv"))
	}
	// Cancel is idempotent; the second cancel must not roll back again.
	rolledBack = false
	if err := e.CancelUndoable("debit", "iv", func() { rolledBack = true }); err != nil {
		t.Fatal(err)
	}
	if rolledBack {
		t.Error("idempotent cancel rolled back twice")
	}
}

func TestUndoableEpochGuard(t *testing.T) {
	e, _ := newEnv()
	ep := e.ReactivateUndoable("debit", "iv")
	// A cancellation lands between ReactivateUndoable and Exec: the stale
	// invocation must fail without effect, otherwise its completion event
	// would appear after the cancel pair — irreducible under Figure 4.
	if err := e.CancelUndoable("debit", "iv", nil); err != nil {
		t.Fatal(err)
	}
	_, err := e.ExecUndoable("debit", "iv", ep, func() action.Value { return "x" })
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("stale exec error = %v, want ErrCancelled", err)
	}
	if e.Applied("debit", "iv") != 0 {
		t.Error("stale exec applied its effect")
	}
	// A fresh invocation re-activates.
	ep2 := e.ReactivateUndoable("debit", "iv")
	if ep2 == ep {
		t.Error("re-activation must advance the epoch")
	}
	if _, err := e.ExecUndoable("debit", "iv", ep2, func() action.Value { return "y" }); err != nil {
		t.Fatal(err)
	}
}

func TestCancelAfterCommitIsError(t *testing.T) {
	e, _ := newEnv()
	ep := e.ReactivateUndoable("debit", "iv")
	_, _ = e.ExecUndoable("debit", "iv", ep, func() action.Value { return "x" })
	if err := e.CommitUndoable("debit", "iv"); err != nil {
		t.Fatal(err)
	}
	if err := e.CancelUndoable("debit", "iv", nil); err == nil {
		t.Error("cancel after commit should error (protocol invariant)")
	}
}

func TestCommitWithoutCompletionIsError(t *testing.T) {
	e, _ := newEnv()
	if err := e.CommitUndoable("debit", "iv"); err == nil {
		t.Error("commit of unknown transaction should error")
	}
	e.ReactivateUndoable("debit", "iv2")
	if err := e.CommitUndoable("debit", "iv2"); err == nil {
		t.Error("commit of active (uncompleted) transaction should error")
	}
}

func TestExecWithoutBeginIsError(t *testing.T) {
	e, _ := newEnv()
	if _, err := e.ExecUndoable("debit", "iv", 0, func() action.Value { return "x" }); err == nil {
		t.Error("exec without ReactivateUndoable should error")
	}
}

func TestRawDuplication(t *testing.T) {
	e, _ := newEnv()
	for i := 0; i < 3; i++ {
		if _, err := e.ExecRaw("raw", "iv", func() action.Value { return "v" }); err != nil {
			t.Fatal(err)
		}
	}
	if e.Applied("raw", "iv") != 3 || e.InForce("raw", "iv") != 3 {
		t.Errorf("raw audit: applied=%d inforce=%d, want 3/3", e.Applied("raw", "iv"), e.InForce("raw", "iv"))
	}
}

func TestFailureInjectionBudget(t *testing.T) {
	e, _ := newEnv()
	e.SetFailures("read", 1.0, 3, 0)
	fails := 0
	for i := 0; i < 10; i++ {
		if _, err := e.ExecIdempotent("read", "k", func() action.Value { return "v" }); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("failures = %d, want exactly the budget 3", fails)
	}
}

func TestFailureAfterEffect(t *testing.T) {
	e, obs := newEnv()
	e.SetFailures("read", 1.0, 1, 1.0) // one failure, striking after the effect
	_, err := e.ExecIdempotent("read", "k", func() action.Value { return "v" })
	if err == nil {
		t.Fatal("expected injected failure")
	}
	// The effect landed (resolve-once fixed "v") but no completion event.
	if obs.Len() != 0 {
		t.Error("failed invocation emitted a completion event")
	}
	v, err := e.ExecIdempotent("read", "k", func() action.Value { return "other" })
	if err != nil || v != "v" {
		t.Errorf("retry = (%q, %v), want the resolved v", v, err)
	}
}

func TestInForceTotalAcrossRounds(t *testing.T) {
	e, _ := newEnv()
	r1 := action.NewRequest("debit", "acct").WithID("q").WithRound(1)
	r2 := action.NewRequest("debit", "acct").WithID("q").WithRound(2)
	ep1 := e.ReactivateUndoable("debit", r1.EffectiveInput())
	_, _ = e.ExecUndoable("debit", r1.EffectiveInput(), ep1, func() action.Value { return "a" })
	_ = e.CancelUndoable("debit", r1.EffectiveInput(), nil)
	ep2 := e.ReactivateUndoable("debit", r2.EffectiveInput())
	_, _ = e.ExecUndoable("debit", r2.EffectiveInput(), ep2, func() action.Value { return "b" })
	_ = e.CommitUndoable("debit", r2.EffectiveInput())
	if got := e.InForceTotal("debit", "acct"); got != 1 {
		t.Errorf("InForceTotal = %d, want 1 (round 1 rolled back, round 2 committed)", got)
	}
}

func TestUndoableReexecutionAfterCompletion(t *testing.T) {
	e, _ := newEnv()
	ep := e.ReactivateUndoable("debit", "iv")
	v1, _ := e.ExecUndoable("debit", "iv", ep, func() action.Value { return "first" })
	// Retry of the same round after completion: idempotent, same result,
	// no duplicate effect.
	ep2 := e.ReactivateUndoable("debit", "iv")
	v2, err := e.ExecUndoable("debit", "iv", ep2, func() action.Value { return "second" })
	if err != nil || v1 != v2 {
		t.Errorf("re-exec = (%q, %v), want (%q, nil)", v2, err, v1)
	}
	if e.Applied("debit", "iv") != 1 {
		t.Errorf("applied = %d, want 1", e.Applied("debit", "iv"))
	}
}
