// Package shrink turns a failing sweep seed into a minimal counterexample
// trace. A failing seed from scenario.Sweep is an opaque integer: it says
// the protocol broke, not why. Shrink records the failing run's delivery
// schedule (internal/schedule), then delta-debugs it — ddmin over the
// delivered messages, greedy removal over the fault plan's ops — re-running
// scenario.Execute under replay after every edit and keeping any edit that
// preserves the failure. The result is a locally minimal trace: removing
// any single remaining delivery or fault step makes the failure disappear.
// That trace, rendered, is the reproducible account of the failure that a
// bare seed never was.
//
// Shrinking is deterministic: runs are virtual-time executions of
// (scenario, seed, log) and every edit decision is a pure function of the
// previous run's outcome, so equal inputs shrink to equal traces on any
// host and any worker count.
package shrink

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"xability/internal/obs"
	"xability/internal/scenario"
	"xability/internal/schedule"
)

// Options tunes a shrink.
type Options struct {
	// MaxSteps caps the number of scenario executions spent (0 selects
	// 600). Shrink returns its best-so-far trace with ErrBudget when the
	// cap strikes before convergence.
	MaxSteps int
	// Failing decides whether an outcome reproduces the failure under
	// investigation. Nil selects the failure class of the baseline run:
	// a run that failed verification while answering the client must
	// keep answering (a starved, timed-out run is a different bug than a
	// duplicated effect); a run that failed by not answering must keep
	// not answering.
	Failing func(scenario.Outcome) bool
	// Annotate re-runs the minimal replay once more under request tracing
	// (internal/obs) and attaches the rendered span timeline to the trace
	// (MinTrace.Spans; Render appends it). Off by default so golden
	// renders are unchanged.
	Annotate bool
}

// ErrBudget reports that MaxSteps ran out before the trace was verified
// locally minimal; the returned MinTrace is the best trace found.
var ErrBudget = errors.New("shrink: step budget exhausted before convergence")

// ErrNotFailing reports that the scenario does not fail on the given seed,
// so there is nothing to shrink.
var ErrNotFailing = errors.New("shrink: scenario does not fail on this seed")

// MinTrace is a minimized counterexample: the fault plan and delivery
// schedule of a locally minimal failing run.
type MinTrace struct {
	// Scenario and Seed identify the shrunk run.
	Scenario string
	Seed     int64

	// Plan is the minimal fault plan (nil when the scenario had none or
	// every op shrank away).
	Plan *scenario.Plan
	// Log is the effective schedule of the minimal run: kept deliveries
	// plus the suppressed/dropped placeholders that replay needs for
	// stream alignment. Replaying (scenario, seed, Log) verbatim
	// reproduces the failure.
	Log *schedule.Log

	// Deliveries and Ops count the kept deliveries and fault ops;
	// BaseDeliveries and BaseOps are the unshrunken counts.
	Deliveries, BaseDeliveries int
	Ops, BaseOps               int
	// Steps is the number of scenario executions spent.
	Steps int
	// Minimal reports that 1-minimality was verified: suppressing any
	// single kept delivery, or removing any single kept edit unit (an op,
	// or a crash together with its paired restart), makes the failure
	// disappear (within the run deadline).
	Minimal bool
	// Deadline is the virtual-time cap edited runs executed under (the
	// scenario's own, or the one derived from the baseline's span). A
	// cross-process re-run of the artifact needs it: without the cap, an
	// edit-stalled await would hang instead of reporting TimedOut.
	Deadline time.Duration
	// Spans is the minimal run's rendered request timeline (one line per
	// span event, virtual-time ordered). Filled only by Options.Annotate.
	Spans []string

	// Outcome is the minimal run's outcome.
	Outcome scenario.Outcome
}

// Replay returns the replay spec that reproduces the minimal failing run:
// the effective log replayed verbatim (recorded suppressions included).
func (m MinTrace) Replay() *schedule.Replay {
	return &schedule.Replay{Log: m.Log}
}

// Render writes the trace for humans: the failure, the minimal fault plan,
// and the kept schedule. The rendering is deterministic (virtual times
// only), so it can be diffed against golden files.
func (m MinTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "minimal counterexample — scenario %s, seed %d\n", m.Scenario, m.Seed)
	o := m.Outcome
	fmt.Fprintf(&b, "failure: x-able=%v replied=%v effects-in-force=%d executions=%d\n",
		o.XAble, o.Replied, o.EffectsInForce, o.Executions)
	fmt.Fprintf(&b, "fault plan (%d of %d ops kept):\n", m.Ops, m.BaseOps)
	if m.Plan == nil || len(m.Plan.Ops()) == 0 {
		b.WriteString("  (none)\n")
	} else {
		for _, line := range strings.Split(m.Plan.String(), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	suppressed := 0
	var kept []schedule.Entry
	for _, e := range m.Log.Entries() {
		if e.Verdict == schedule.Suppressed {
			suppressed++
			continue
		}
		kept = append(kept, e)
	}
	fmt.Fprintf(&b, "schedule (%d of %d deliveries kept, %d suppressed):\n",
		m.Deliveries, m.BaseDeliveries, suppressed)
	for _, e := range kept {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	if len(m.Spans) > 0 {
		fmt.Fprintf(&b, "request timeline (%d events):\n", len(m.Spans))
		for _, s := range m.Spans {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	if !m.Minimal {
		b.WriteString("note: step budget exhausted; trace still fails but is not verified 1-minimal\n")
	}
	return b.String()
}

// maxSeeds bounds how many of a sweep's failing seeds Seeds shrinks: each
// shrink re-executes the scenario up to Options.MaxSteps times, one after
// another, and a sweep with hundreds of failing seeds wants a bound.
const maxSeeds = 3

// Seeds shrinks a sweep's failing seeds (scenario.VerdictDistribution's
// Failing), in their order, and returns the minimal traces of the first
// maxSeeds that yield one. A budget-cut shrink that has a log still yields
// its best-so-far trace (Render marks it unverified); a seed that does not
// fail, or whose shrink fails otherwise, yields nothing.
func Seeds(sc scenario.Scenario, seeds []int64, opt Options) []MinTrace {
	var out []MinTrace
	for _, seed := range seeds {
		if len(out) >= maxSeeds {
			break
		}
		mt, err := Shrink(sc, seed, opt)
		if err == nil || (errors.Is(err, ErrBudget) && mt.Log != nil) {
			out = append(out, mt)
		}
	}
	return out
}

// Shrink minimizes the failing run of sc on seed. It alternates two
// passes until neither makes progress: greedy removal of fault-plan ops,
// and ddmin over the delivered messages of the recorded schedule. Every
// trial edit re-executes the scenario under replay; a trial is kept only
// when the failure (per Options.Failing) persists. A final verification
// pass re-tests every surviving delivery and op individually, so the
// returned trace is 1-minimal, not just ddmin-converged.
func Shrink(sc scenario.Scenario, seed int64, opt Options) (MinTrace, error) {
	// Resolve seed-derived faults into the plan first: the shrinker edits
	// sc.Plan op by op, which only converges when the plan it edits is the
	// whole schedule (a RandomFaults scenario would otherwise re-draw its
	// ops on every trial, resurrecting whatever was removed).
	sc = sc.Materialize(seed)
	budget := opt.MaxSteps
	if budget <= 0 {
		budget = 600
	}
	steps := 0
	left := func() int { return budget - steps }

	exec := func(plan *scenario.Plan, rec *schedule.Log, replay *schedule.Replay) scenario.Outcome {
		steps++
		s := sc
		s.Plan = plan
		return scenario.Run(s, seed, scenario.RunOptions{Record: rec, Replay: replay})
	}

	// Baseline: the uncapped recorded run. It came out of a sweep, so it
	// terminates on its own; edited runs can stall a client await forever,
	// so they get a virtual-time deadline derived from the baseline's span.
	baseLog := schedule.NewLog()
	base := exec(sc.Plan, baseLog, nil)
	failing := opt.Failing
	if failing == nil {
		failing = sameFailure(base)
	}
	plan := sc.Plan.Clone()
	mt := MinTrace{
		Scenario:       sc.Name,
		Seed:           seed,
		BaseDeliveries: baseLog.DeliveredCount(),
		BaseOps:        len(plan.Ops()),
	}
	if !failing(base) {
		mt.Steps = steps
		return mt, ErrNotFailing
	}
	if sc.Deadline <= 0 {
		sc.Deadline = runDeadline(base, sc)
	}

	log := baseLog
	outcome := base

	// try executes one trial edit — a candidate plan replayed against the
	// current log with extra deliveries suppressed — recording as it
	// goes. When the failure persists the recorded run IS the new state
	// (runs are deterministic, so adopting the trial's log equals
	// re-running the committed edit), and the suppressions are folded
	// into the adopted log's verdicts, so rounds compose; a failed trial
	// discards its recording. One scenario execution per trial either
	// way. Callers whose drop indices reference the current log must
	// recompute them after a successful try: the adopted log renumbers.
	try := func(p *scenario.Plan, drop map[int]bool) bool {
		rec := schedule.NewLog()
		o := exec(p, rec, &schedule.Replay{Log: log, Edit: schedule.SuppressSet(drop)})
		if !failing(o) {
			return false
		}
		plan, log, outcome = p, rec, o
		return true
	}
	// check is the pure variant for ddmin, whose whole run must test
	// subsets of one pinned candidate universe: no recording, no
	// adoption.
	check := func(drop map[int]bool) bool {
		if left() <= 0 {
			return false
		}
		o := exec(plan, nil, &schedule.Replay{Log: log, Edit: schedule.SuppressSet(drop)})
		return failing(o)
	}

	// Alternate plan-op removal and delivery ddmin until a full round
	// removes nothing (or the budget strikes).
	for left() > 0 {
		removed := false

		// Fault-plan ops: greedy removal to fixpoint, one edit unit at a
		// time — an op plus its crash/restart partner (see pairSet). Plans
		// are short; greedy is 1-minimal by construction. Deliveries stay
		// pinned to the recorded schedule while ops are tested, so a
		// removed unit means the unit itself was unnecessary, not that the
		// timing shifted.
		for i := 0; i < len(plan.Ops()) && left() > 0; {
			if try(plan.Without(pairSet(plan.Ops(), i)), nil) {
				removed = true
				continue // the next op slid into slot i
			}
			i++
		}

		// Deliveries: ddmin over the delivered entries of the current log.
		// Trials are pure (the candidate indices reference this round's
		// pinned log); the converged keep-set is then adopted with one
		// recording run.
		cands := deliveredIndices(log)
		kept := ddmin(cands, func(keep []int) bool {
			return check(dropSet(cands, keep))
		}, left)
		if len(kept) < len(cands) && left() > 0 {
			if !try(plan, dropSet(cands, kept)) {
				// Cannot happen: ddmin only returns keep-sets it saw fail.
				// Guard anyway so a logic slip degrades to no progress
				// instead of a corrupted state.
				break
			}
			removed = true
		}

		if !removed {
			break
		}
	}

	// Verification pass: 1-minimality of every survivor, individually.
	// ddmin guarantees minimality only at its final granularity; anything
	// it missed is removed here, and what remains is certified.
	verified := left() > 0
	for pass := true; pass && left() > 0; {
		pass = false
		for _, i := range deliveredIndices(log) {
			if left() <= 0 {
				verified = false
				break
			}
			if try(plan, map[int]bool{i: true}) {
				pass = true
				break
			}
		}
		if pass {
			continue
		}
		for i := 0; i < len(plan.Ops()); i++ {
			if left() <= 0 {
				verified = false
				break
			}
			if try(plan.Without(pairSet(plan.Ops(), i)), nil) {
				pass = true
				break
			}
		}
	}
	if left() <= 0 {
		verified = false
	}

	mt.Plan = plan
	mt.Log = log
	mt.Deliveries = log.DeliveredCount()
	mt.Ops = len(plan.Ops())
	mt.Steps = steps
	mt.Minimal = verified
	mt.Deadline = sc.Deadline
	mt.Outcome = outcome
	if opt.Annotate {
		// One more replay of the adopted log, this time under tracing: runs
		// are deterministic, so the timeline depicts exactly the minimal
		// run already committed (the annotated outcome is discarded —
		// observation does not perturb the schedule).
		tr := obs.NewTrace(0)
		s := sc
		s.Plan = plan
		scenario.Run(s, seed, scenario.RunOptions{Replay: mt.Replay(), Obs: &obs.Run{Trace: tr}})
		mt.Spans = tr.RenderText()
	}
	if !verified {
		return mt, ErrBudget
	}
	return mt, nil
}

// pairSet returns the removal unit for op i: the op itself plus its
// crash/restart partner, when it has one. A crash and its restart are one
// atomic edit — removing the restart alone would turn a
// crash→restart schedule into a permanent crash (a different failure
// class the schedule's liveness guard forbids), and removing the crash
// alone would leave a restart of a never-crashed replica. A crash pairs
// forward to the nearest restart of the same replica under the same
// shard scope; a restart pairs backward. Ops without crash/restart
// identity (scenario.OpOther) shrink alone, as before.
func pairSet(ops []scenario.Op, i int) map[int]bool {
	set := map[int]bool{i: true}
	switch ops[i].Kind {
	case scenario.OpCrash:
		for j := i + 1; j < len(ops); j++ {
			if ops[j].Paired(ops[i]) {
				set[j] = true
				return set
			}
		}
	case scenario.OpRestart:
		for j := i - 1; j >= 0; j-- {
			if ops[j].Paired(ops[i]) {
				set[j] = true
				return set
			}
		}
	}
	return set
}

// deliveredIndices lists the log entries that resolved to Delivered — the
// ddmin candidate universe.
func deliveredIndices(l *schedule.Log) []int {
	var out []int
	for _, e := range l.Entries() {
		if e.Verdict == schedule.Delivered {
			out = append(out, e.Index)
		}
	}
	return out
}

// dropSet converts a ddmin keep-subset into the suppression set for the
// replay edit: every candidate not kept is dropped.
func dropSet(cands, keep []int) map[int]bool {
	in := make(map[int]bool, len(keep))
	for _, i := range keep {
		in[i] = true
	}
	drop := make(map[int]bool)
	for _, i := range cands {
		if !in[i] {
			drop[i] = true
		}
	}
	return drop
}

// sameFailure derives the default failure predicate from the baseline
// outcome: preserve the failure class, and never accept a watchdog-killed
// run as a reproduction of a failure that answered the client.
func sameFailure(base scenario.Outcome) func(scenario.Outcome) bool {
	switch {
	case !base.XAble && base.Replied:
		return func(o scenario.Outcome) bool { return !o.XAble && o.Replied && !o.TimedOut }
	case !base.XAble:
		return func(o scenario.Outcome) bool { return !o.XAble }
	default:
		return func(o scenario.Outcome) bool { return !o.Replied }
	}
}

// runDeadline derives the edited runs' virtual-time cap from the
// baseline's simulated span: generous enough for any legitimately slower
// variant (retries after a suppressed reply), tight enough that a stalled
// await costs bounded virtual time.
func runDeadline(base scenario.Outcome, sc scenario.Scenario) time.Duration {
	d := 4*base.SimTime + 4*sc.Settle + 10*time.Millisecond
	if sc.Plan != nil {
		d += sc.Plan.Horizon()
	}
	return d
}
