// Package sm implements the state machines of §2.1: a dispatcher that
// exports named actions, executes them against the environment, and emits
// the start/completion events of §2.2.
//
// In contrast to classical state-machine replication [Sch93], actions may
// be non-deterministic (each machine carries a seeded random source exposed
// to action bodies) and may have side effects on third-party entities
// (applied through the internal/env environment, which couples each effect
// with its completion event atomically).
//
// The machine implements the paper's execute dispatch (§5.4): a request
// names an action; derived cancellation and commit actions (for undoable
// actions) are dispatched to the environment's transaction machinery
// automatically, with an optional rollback hook.
package sm

import (
	"fmt"
	"math/rand"

	"xability/internal/action"
	"xability/internal/env"
	"xability/internal/event"
	"xability/internal/recycle"
	"xability/internal/xrand"
)

// Ctx is passed to action bodies.
type Ctx struct {
	// Req is the request being executed, including its protocol tags
	// (request ID and round).
	Req action.Request
	// Rand is the machine's seeded random source: the sanctioned origin of
	// action non-determinism.
	Rand *rand.Rand
	// Replica names the executing replica.
	Replica string
}

// Body computes an action's side effect and output value. It runs under the
// environment lock and must not block. The *Ctx is the machine's own,
// refilled for every execution: a body must not keep it past its return.
type Body func(ctx *Ctx) action.Value

// Hook observes a transaction rollback. It runs under the environment lock,
// and like a Body must not keep its *Ctx.
type Hook func(ctx *Ctx)

// handler is one registered action's bodies.
type handler struct {
	exec       Body
	onRollback Hook
}

// Machine is one replica's copy of the service's state machine. Register
// every body (HandleIdempotent, HandleUndoable) before it executes.
type Machine struct {
	reg *action.Registry
	env *env.Env
	// handlers holds the bodies by the registry's action index.
	handlers []handler
	// ctx is the one context every body gets. Bodies run synchronously
	// under the environment lock, which is also where Execute fills it.
	ctx Ctx
}

// New builds a machine for a replica over a shared environment. Each
// replica's machine gets its own seed so replicas are independently
// non-deterministic.
func New(replica string, reg *action.Registry, e *env.Env, seed int64) *Machine {
	m := new(Machine)
	m.Reset(replica, reg, e, seed)
	return m
}

// Reset makes m the machine New builds, with no bodies registered, keeping
// the storage of its handler table and its random stream.
func (m *Machine) Reset(replica string, reg *action.Registry, e *env.Env, seed int64) {
	*m = Machine{
		reg:      reg,
		env:      e,
		handlers: recycle.Len(recycle.Slice(m.handlers), reg.Len()),
		ctx:      Ctx{Rand: xrand.Renew(m.ctx.Rand, seed), Replica: replica},
	}
}

// Registry returns the machine's action vocabulary.
func (m *Machine) Registry() *action.Registry { return m.reg }

// Env returns the machine's environment.
func (m *Machine) Env() *env.Env { return m.env }

// Replica returns the replica name.
func (m *Machine) Replica() string { return m.ctx.Replica }

// HandleIdempotent registers the body of an idempotent action. The action
// must already be registered as idempotent in the registry.
func (m *Machine) HandleIdempotent(a action.Name, body Body) error {
	e, ok := m.reg.Lookup(a)
	if !ok || e.Kind != action.KindIdempotent || e.Index >= len(m.handlers) {
		return fmt.Errorf("sm: %q is not a registered idempotent action", a)
	}
	m.handlers[e.Index] = handler{exec: body}
	return nil
}

// HandleUndoable registers the body of an undoable action together with an
// optional rollback hook invoked when a cancellation rolls back an applied
// effect.
func (m *Machine) HandleUndoable(a action.Name, body Body, onRollback Hook) error {
	e, ok := m.reg.Lookup(a)
	if !ok || e.Kind != action.KindUndoable || e.Index >= len(m.handlers) {
		return fmt.Errorf("sm: %q is not a registered undoable action", a)
	}
	m.handlers[e.Index] = handler{exec: body, onRollback: onRollback}
	return nil
}

// IsIdempotent and IsUndoable expose the registry classification with the
// paper's method names (Figure 7 uses S.is-idempotent / S.is-undoable).
func (m *Machine) IsIdempotent(req action.Request) bool { return m.reg.IsIdempotent(req.Action) }

// IsUndoable reports whether the request's action is undoable.
func (m *Machine) IsUndoable(req action.Request) bool { return m.reg.IsUndoable(req.Action) }

// Cancel is the paper's cancel(r) (§5.4): req.Cancel() with the name the
// registry derived once. It reports whether req's action is a registered
// undoable action, the only kind that has one.
func (m *Machine) Cancel(req action.Request) (action.Request, bool) {
	e, ok := m.reg.Lookup(req.Action)
	req.Action = e.Cancel
	return req, ok && e.Kind == action.KindUndoable
}

// Commit is the paper's commit(r), as Cancel is cancel(r).
func (m *Machine) Commit(req action.Request) (action.Request, bool) {
	e, ok := m.reg.Lookup(req.Action)
	req.Action = e.Commit
	return req, ok && e.Kind == action.KindUndoable
}

// Execute dispatches a request (the paper's S.execute, §5.4): it emits the
// start event, applies the action through the environment, and returns the
// output value. A failure (injected, or an interleaved cancellation) leaves
// the start event dangling and returns the error, exactly as §2.2
// prescribes for failed executions.
func (m *Machine) Execute(req action.Request) (action.Value, error) {
	e, ok := m.reg.Lookup(req.Action)
	if !ok {
		return "", fmt.Errorf("sm: unknown action %q", req.Action)
	}
	var h handler
	if e.Index < len(m.handlers) {
		h = m.handlers[e.Index]
	}
	iv := req.EffectiveInput()
	obs := m.env.Observer()

	switch e.Kind {
	case action.KindIdempotent:
		if h.exec == nil {
			return "", fmt.Errorf("sm: no body for idempotent action %q", req.Action)
		}
		obs.Observe(event.S(req.Action, iv).WithAnnotation(m.ctx.Replica))
		return m.env.ExecIdempotent(req.Action, iv, func() action.Value { m.ctx.Req = req; return h.exec(&m.ctx) })

	case action.KindUndoable:
		if h.exec == nil {
			return "", fmt.Errorf("sm: no body for undoable action %q", req.Action)
		}
		epoch := m.env.ReactivateUndoable(req.Action, iv)
		obs.Observe(event.S(req.Action, iv).WithAnnotation(m.ctx.Replica))
		return m.env.ExecUndoable(req.Action, iv, epoch, func() action.Value { m.ctx.Req = req; return h.exec(&m.ctx) })

	case action.KindCancel:
		obs.Observe(event.S(req.Action, iv).WithAnnotation(m.ctx.Replica))
		var hook func()
		if h.onRollback != nil {
			hook = func() { m.ctx.Req = req; h.onRollback(&m.ctx) }
		}
		if err := m.env.CancelUndoable(req.Action, iv, hook); err != nil {
			return "", err
		}
		return action.Nil, nil

	case action.KindCommit:
		obs.Observe(event.S(req.Action, iv).WithAnnotation(m.ctx.Replica))
		if err := m.env.CommitUndoable(req.Action, iv); err != nil {
			return "", err
		}
		return action.Nil, nil

	default:
		return "", fmt.Errorf("sm: cannot execute %q (kind %v)", req.Action, e.Kind)
	}
}
