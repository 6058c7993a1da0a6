package sm

import (
	"testing"

	"xability/internal/action"
	"xability/internal/env"
	"xability/internal/event"
	"xability/internal/trace"
)

func machine(t *testing.T) (*Machine, *trace.Observer) {
	t.Helper()
	reg := action.NewRegistry()
	reg.MustRegister("read", action.KindIdempotent)
	reg.MustRegister("debit", action.KindUndoable)
	obs := trace.New()
	world := env.New(obs, 1)
	m := New("r0", reg, world, 42)
	if err := m.HandleIdempotent("read", func(ctx *Ctx) action.Value { return "v" }); err != nil {
		t.Fatal(err)
	}
	if err := m.HandleUndoable("debit",
		func(ctx *Ctx) action.Value { return "done" },
		func(ctx *Ctx) {},
	); err != nil {
		t.Fatal(err)
	}
	return m, obs
}

func TestExecuteIdempotentEmitsPair(t *testing.T) {
	m, obs := machine(t)
	req := action.NewRequest("read", "k").WithID("q")
	v, err := m.Execute(req)
	if err != nil || v != "v" {
		t.Fatalf("Execute = (%q, %v)", v, err)
	}
	h := obs.History()
	iv := req.EffectiveInput()
	if len(h) != 2 || !h[0].Equal(event.S("read", iv)) || !h[1].Equal(event.C("read", "v")) {
		t.Errorf("history = %v", h)
	}
	if h[0].Annotation != "r0" {
		t.Errorf("annotation = %q", h[0].Annotation)
	}
}

func TestExecuteUndoableFullCycle(t *testing.T) {
	m, obs := machine(t)
	req := action.NewRequest("debit", "a").WithID("q").WithRound(1)
	v, err := m.Execute(req)
	if err != nil || v != "done" {
		t.Fatalf("Execute = (%q, %v)", v, err)
	}
	if v, err := m.Execute(req.Commit()); err != nil || v != action.Nil {
		t.Fatalf("commit = (%q, %v)", v, err)
	}
	h := obs.History()
	if len(h) != 4 {
		t.Fatalf("history = %v", h)
	}
	com := req.Commit()
	want := event.History{
		event.S("debit", req.EffectiveInput()),
		event.C("debit", "done"),
		event.S(com.Action, com.EffectiveInput()),
		event.C(com.Action, action.Nil),
	}
	if !h.Equal(want) {
		t.Errorf("history = %v\nwant %v", h, want)
	}
}

func TestExecuteCancelCycle(t *testing.T) {
	m, obs := machine(t)
	req := action.NewRequest("debit", "a").WithID("q").WithRound(1)
	if _, err := m.Execute(req); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Execute(req.Cancel()); err != nil || v != action.Nil {
		t.Fatalf("cancel = (%q, %v)", v, err)
	}
	h := obs.History()
	can := req.Cancel()
	if !h[len(h)-1].Equal(event.C(can.Action, action.Nil)) {
		t.Errorf("last event = %v", h[len(h)-1])
	}
	if m.Env().InForceTotal("debit", "a") != 0 {
		t.Error("cancel left the effect in force")
	}
}

func TestExecuteFailureLeavesDanglingStart(t *testing.T) {
	m, obs := machine(t)
	m.Env().SetFailures("read", 1.0, 1, 0)
	req := action.NewRequest("read", "k").WithID("q")
	if _, err := m.Execute(req); err == nil {
		t.Fatal("expected injected failure")
	}
	h := obs.History()
	if len(h) != 1 || h[0].Type != event.Start {
		t.Errorf("failed execution should leave only the start event; got %v", h)
	}
	// Retry succeeds; the pair completes.
	if _, err := m.Execute(req); err != nil {
		t.Fatal(err)
	}
	if obs.Len() != 3 {
		t.Errorf("history length = %d, want 3 (S S C)", obs.Len())
	}
}

func TestExecuteUnknownAction(t *testing.T) {
	m, _ := machine(t)
	if _, err := m.Execute(action.NewRequest("ghost", "x")); err == nil {
		t.Error("unknown action should error")
	}
}

func TestExecuteUnregisteredBody(t *testing.T) {
	reg := action.NewRegistry()
	reg.MustRegister("noop", action.KindIdempotent)
	reg.MustRegister("tx", action.KindUndoable)
	m := New("r0", reg, env.New(trace.New(), 1), 1)
	if _, err := m.Execute(action.NewRequest("noop", "x")); err == nil {
		t.Error("idempotent action without body should error")
	}
	if _, err := m.Execute(action.NewRequest("tx", "x")); err == nil {
		t.Error("undoable action without body should error")
	}
}

func TestHandlerRegistrationValidation(t *testing.T) {
	m, _ := machine(t)
	if err := m.HandleIdempotent("debit", func(*Ctx) action.Value { return "" }); err == nil {
		t.Error("registering undoable name as idempotent body should fail")
	}
	if err := m.HandleUndoable("read", func(*Ctx) action.Value { return "" }, nil); err == nil {
		t.Error("registering idempotent name as undoable body should fail")
	}
}

func TestClassificationHelpers(t *testing.T) {
	m, _ := machine(t)
	if !m.IsIdempotent(action.NewRequest("read", "k")) {
		t.Error("read should be idempotent")
	}
	if !m.IsUndoable(action.NewRequest("debit", "a")) {
		t.Error("debit should be undoable")
	}
	if m.Replica() != "r0" {
		t.Error(m.Replica())
	}
	if m.Registry() == nil || m.Env() == nil {
		t.Error("accessors broken")
	}
}

func TestNonDeterminismIsSeeded(t *testing.T) {
	reg := action.NewRegistry()
	reg.MustRegister("rand", action.KindIdempotent)
	mk := func(seed int64, key string) action.Value {
		obs := trace.New()
		m := New("r", reg, env.New(obs, 1), seed)
		_ = m.HandleIdempotent("rand", func(ctx *Ctx) action.Value {
			return action.Value(rune('a' + ctx.Rand.Intn(26)))
		})
		v, _ := m.Execute(action.NewRequest("rand", action.Value(key)))
		return v
	}
	if mk(1, "k") != mk(1, "k") {
		t.Error("same seed must reproduce the same non-determinism")
	}
}
