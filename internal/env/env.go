// Package env simulates the external environment — the "third-party
// entities" of §1 — that replicated services have side effects on.
//
// The environment is the serialization point of the model: every side
// effect is applied under one lock, atomically with the emission of the
// action's completion event to the trace observer (§2.2: "a completion
// event means that the side effect has happened"). The observed total order
// is therefore consistent with the order effects actually took place.
//
// Semantics enforced per action class (§3.1):
//
//   - Idempotent actions resolve their non-determinism at first completion:
//     the first successful execution of (a, iv) fixes the result and applies
//     the effect; later executions return the same result without
//     re-applying it. This is what makes every completion event of an
//     idempotent action carry the same output value, which rule 18 of the
//     reduction calculus requires ("the trick is to coordinate the execution
//     logic with the retry logic so that there is agreement on the result of
//     a nondeterministic idempotent action", §1).
//
//   - Undoable actions are transactions scoped by their round-tagged input.
//     Execution is epoch-guarded: an invocation captures the transaction's
//     epoch when it starts; a cancellation bumps the epoch; an invocation
//     whose effect would land after an interleaved cancellation fails
//     instead (no completion event, no effect) — otherwise a completion
//     event could appear after the cancel pair that supposedly erased it,
//     which no rule of Figure 4 can reduce. A fresh invocation after a
//     cancellation re-activates the transaction.
//
//   - Raw effects (ExecRaw) apply unconditionally on every call. They model
//     an uncoordinated service and are what the baseline protocols use; the
//     exactly-once audit exposes their duplication.
//
// Failure injection implements §5.2's "every action is eventually
// successful": each action can be given a failure budget; failures strike
// before or after the effect (both happen in real systems) and the budget
// guarantees eventual success.
package env

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/trace"
	"xability/internal/xrand"
)

// ErrInjected is the failure returned by injected action failures.
var ErrInjected = errors.New("env: injected action failure")

// ErrCancelled is returned when an invocation's effect would land after an
// interleaved cancellation of its transaction epoch.
var ErrCancelled = errors.New("env: transaction cancelled during execution")

// ErrFenced is returned when an invocation targets a fenced transaction:
// an abort decision neutralized the round, and per the paper's testcancel
// semantics (§5.3) the tagged action must never take effect afterwards.
// Unlike ErrCancelled this is terminal — retrying cannot succeed.
var ErrFenced = errors.New("env: transaction fenced by an abort decision")

// Effect computes an action's side effect and output value. It runs under
// the environment lock and must not block.
type Effect func() action.Value

// Epoch identifies an undoable invocation's view of its transaction.
type Epoch int

type txStatus int

const (
	txActive txStatus = iota
	txCompleted
	txCancelled
	txCommitted
)

type tx struct {
	status txStatus
	epoch  Epoch
	result action.Value
	// fenced marks a transaction whose round's outcome was decided abort:
	// re-execution (including reactivation) is forbidden forever. This is
	// the prohibitive arm of the paper's testcancel — cancellation alone
	// only rolls back, it does not prevent a later retry from re-applying
	// the effect.
	fenced bool
}

type failurePlan struct {
	prob      float64
	remaining int
	afterProb float64 // among failures, fraction striking after the effect
}

// Env is one environment instance (one verification scope). Create with
// New.
type Env struct {
	mu  sync.Mutex
	obs *trace.Observer
	rng *rand.Rand

	resolved map[string]action.Value // idempotent resolve-once results
	txs      map[string]*tx          // undoable transactions by tagged input

	// audit counters
	applied   map[string]int // effect applications (incl. rolled back)
	committed map[string]int // effects currently in force
	failures  map[action.Name]*failurePlan
}

// New builds an environment reporting events to obs, with seeded
// non-determinism for failure injection.
func New(obs *trace.Observer, seed int64) *Env {
	return &Env{
		obs:       obs,
		rng:       xrand.New(seed),
		resolved:  make(map[string]action.Value),
		txs:       make(map[string]*tx),
		applied:   make(map[string]int),
		committed: make(map[string]int),
		failures:  make(map[action.Name]*failurePlan),
	}
}

// Observer returns the trace observer the environment reports to.
func (e *Env) Observer() *trace.Observer { return e.obs }

// SetFailures arms failure injection for an action name: each invocation
// fails with probability prob until budget failures have struck (so the
// action eventually succeeds, per §5.2). afterProb is the fraction of
// failures that strike after the effect applied.
func (e *Env) SetFailures(a action.Name, prob float64, budget int, afterProb float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failures[a] = &failurePlan{prob: prob, remaining: budget, afterProb: afterProb}
}

// shouldFail consumes one failure from the plan; callers hold e.mu.
func (e *Env) shouldFail(a action.Name) (fail, after bool) {
	p := e.failures[a]
	if p == nil || p.remaining <= 0 || e.rng.Float64() >= p.prob {
		return false, false
	}
	p.remaining--
	return true, e.rng.Float64() < p.afterProb
}

func key(a action.Name, iv action.Value) string { return string(a) + "\x00" + string(iv) }

// ExecIdempotent executes an idempotent action: resolve-once result, effect
// applied at most once, completion event atomic with resolution.
func (e *Env) ExecIdempotent(a action.Name, iv action.Value, eff Effect) (action.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := key(a, iv)
	if v, done := e.resolved[k]; done {
		// Already resolved: re-execution has no further side effect; it
		// completes with the resolved value.
		if fail, _ := e.shouldFail(a); fail {
			return "", ErrInjected
		}
		e.obs.Observe(event.C(a, v).WithAnnotation(string(iv)))
		return v, nil
	}
	fail, after := e.shouldFail(a)
	if fail && !after {
		return "", ErrInjected
	}
	v := eff()
	e.resolved[k] = v
	e.applied[k]++
	e.committed[k]++
	if fail {
		// Effect landed but the invoker sees a failure (e.g. the reply was
		// lost). No completion event: the side effect "may have happened".
		return "", ErrInjected
	}
	e.obs.Observe(event.C(a, v).WithAnnotation(string(iv)))
	return v, nil
}

// ExecUndoable applies the undoable action's effect under the epoch
// captured by ReactivateUndoable. If the transaction was cancelled in the
// meantime the invocation fails with ErrCancelled and has no effect. A
// completed transaction re-executes idempotently (returns its result).
func (e *Env) ExecUndoable(a action.Name, taggedIV action.Value, ep Epoch, eff Effect) (action.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := key(a, taggedIV)
	t := e.txs[k]
	if t == nil {
		return "", fmt.Errorf("env: ExecUndoable without ReactivateUndoable for %s", a)
	}
	if t.fenced {
		return "", ErrFenced
	}
	if t.epoch != ep {
		return "", ErrCancelled
	}
	switch t.status {
	case txCommitted, txCompleted:
		if fail, _ := e.shouldFail(a); fail {
			return "", ErrInjected
		}
		e.obs.Observe(event.C(a, t.result).WithAnnotation(string(taggedIV)))
		return t.result, nil
	case txCancelled:
		// The epoch check above fails for stale invocations; reaching here
		// with a current epoch means the transaction was cancelled after
		// the invoker's ReactivateUndoable.
		return "", ErrCancelled
	}
	fail, after := e.shouldFail(a)
	if fail && !after {
		return "", ErrInjected
	}
	v := eff()
	t.status = txCompleted
	t.result = v
	e.applied[k]++
	e.committed[k]++
	if fail {
		return "", ErrInjected
	}
	e.obs.Observe(event.C(a, v).WithAnnotation(string(taggedIV)))
	return v, nil
}

// CancelUndoable executes the cancellation action a⁻¹ for the transaction:
// the effect (if any) is rolled back, the epoch advances so in-flight
// invocations fail, and the cancel's completion event is emitted
// atomically. Cancellation is idempotent. onRollback, if non-nil, runs
// under the lock when an applied effect is actually rolled back.
func (e *Env) CancelUndoable(a action.Name, taggedIV action.Value, onRollback func()) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	cancelName := action.Cancel(a)
	if fail, _ := e.shouldFail(cancelName); fail {
		return ErrInjected
	}
	k := key(a, taggedIV)
	t := e.txs[k]
	if t == nil {
		t = &tx{}
		e.txs[k] = t
	}
	if t.status == txCommitted {
		return fmt.Errorf("env: cancel after commit of (%s, %s)", a, taggedIV)
	}
	if t.status == txCompleted {
		e.committed[k]--
		if onRollback != nil {
			onRollback()
		}
	}
	t.status = txCancelled
	t.epoch++
	e.obs.Observe(event.C(cancelName, action.Nil).WithAnnotation(string(taggedIV)))
	return nil
}

// ReactivateUndoable opens the transaction for a round-tagged input, or
// transitions a cancelled one back to active for a fresh invocation (retry
// after cancellation), and returns the epoch the invocation runs under.
// Call it before emitting the start event. A fenced transaction stays
// cancelled: the abort decision is final, and
// reviving it here is exactly how a late owner retry would re-apply an
// effect the cleaners already neutralized.
func (e *Env) ReactivateUndoable(a action.Name, taggedIV action.Value) Epoch {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.txs[key(a, taggedIV)]
	if t == nil {
		t = &tx{}
		e.txs[key(a, taggedIV)] = t
	}
	if t.status == txCancelled && !t.fenced {
		t.status = txActive
		t.epoch++
	}
	return t.epoch
}

// FenceUndoable forbids the transaction's action from ever taking effect
// again — the prohibitive arm of the paper's testcancel (§5.3). The
// protocol fences a round's tagged transaction the moment its outcome is
// decided abort, *before* executing the cancellation, so there is no
// window in which a retrying owner can reactivate the rolled-back
// transaction and re-apply the effect. Fencing is a property of the
// environment (the external world), so it survives the fencing replica's
// crash. It rolls nothing back itself; the cancel action does that.
func (e *Env) FenceUndoable(a action.Name, taggedIV action.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.txs[key(a, taggedIV)]
	if t == nil {
		t = &tx{}
		e.txs[key(a, taggedIV)] = t
	}
	t.fenced = true
}

// CommitUndoable executes the commit action aᶜ: the transaction's effect
// becomes permanent. Committing is idempotent; committing a cancelled
// transaction is a protocol error.
func (e *Env) CommitUndoable(a action.Name, taggedIV action.Value) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	commitName := action.Commit(a)
	if fail, _ := e.shouldFail(commitName); fail {
		return ErrInjected
	}
	k := key(a, taggedIV)
	t := e.txs[k]
	if t == nil || t.status == txCancelled || t.status == txActive {
		return fmt.Errorf("env: commit of non-completed transaction (%s, %s)", a, taggedIV)
	}
	t.status = txCommitted
	e.obs.Observe(event.C(commitName, action.Nil).WithAnnotation(string(taggedIV)))
	return nil
}

// ExecRaw applies an uncoordinated effect: every call applies it again.
// Baseline protocols use this; the audit exposes the duplication.
func (e *Env) ExecRaw(a action.Name, iv action.Value, eff Effect) (action.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fail, after := e.shouldFail(a)
	if fail && !after {
		return "", ErrInjected
	}
	v := eff()
	k := key(a, iv)
	e.applied[k]++
	e.committed[k]++
	if fail {
		return "", ErrInjected
	}
	e.obs.Observe(event.C(a, v).WithAnnotation(string(iv)))
	return v, nil
}

// PendingOutcome reports how many undoable transactions have completed
// their effect but not yet executed their decided commit (or cancel).
// The protocol may answer a client as soon as the outcome decision is
// *fixed* — the owner's (or cleaner's) commit execution can still be
// queued behind a loaded executor — so a history snapshot taken while
// this count is nonzero would miss commit pairs the run will still
// produce. Run disciplines extend their settle window until it drains.
func (e *Env) PendingOutcome() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, t := range e.txs {
		if t.status == txCompleted {
			n++
		}
	}
	return n
}

// Applied reports how many times the effect of (a, iv) was applied,
// including applications later rolled back.
func (e *Env) Applied(a action.Name, iv action.Value) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applied[key(a, iv)]
}

// InForce reports how many applications of (a, iv) are currently in force
// (applied and not rolled back). Exactly-once means 1.
func (e *Env) InForce(a action.Name, iv action.Value) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.committed[key(a, iv)]
}

// InForceTotal sums InForce across all tagged inputs whose raw input
// matches iv — the per-request exactly-once audit for round-tagged
// undoable actions.
func (e *Env) InForceTotal(a action.Name, iv action.Value) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	prefix := string(a) + "\x00"
	for k, c := range e.committed {
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			continue
		}
		base, _, _ := action.SplitTag(action.Value(k[len(prefix):]))
		if base == iv {
			total += c
		}
	}
	return total
}
