package shrink

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xability/internal/core"
	"xability/internal/scenario"
	"xability/internal/schedule"
	"xability/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestShrinkPBCrashFailover is the shrinker's acceptance test on the
// repository's planted bug: primary-backup duplication under a
// crash-failover schedule. The minimal trace must still fail, be locally
// minimal, and be small — the schedule that explains the duplication is
// two submits, one reply, and the crash op.
func TestShrinkPBCrashFailover(t *testing.T) {
	sc, ok := scenario.Get("pb-crash-failover")
	if !ok {
		t.Fatal("pb-crash-failover not registered")
	}
	mt, err := Shrink(sc, 1, Options{})
	if err != nil {
		t.Fatalf("Shrink: %v (steps=%d)", err, mt.Steps)
	}
	if !mt.Minimal {
		t.Error("trace not verified 1-minimal")
	}
	if mt.Deliveries > 4 {
		t.Errorf("minimal trace keeps %d deliveries, want ≤ 4:\n%s", mt.Deliveries, mt.Render())
	}
	if mt.Deliveries >= mt.BaseDeliveries {
		t.Errorf("no deliveries removed: %d of %d", mt.Deliveries, mt.BaseDeliveries)
	}
	if mt.Ops != 1 {
		t.Errorf("ops kept = %d, want exactly the crash op", mt.Ops)
	}

	// (a) The trace still fails when replayed.
	o := scenario.Run(sc, 1, scenario.RunOptions{Replay: mt.Replay()})
	if o.XAble || !o.Replied {
		t.Errorf("replayed minimal trace no longer fails: %+v", o)
	}

	// (b) Local minimality is Shrink-verified (mt.Minimal above); spot-check
	// that the duplication is the reported failure.
	if mt.Outcome.EffectsInForce < 2 {
		t.Errorf("minimal outcome lost the duplication: %+v", mt.Outcome)
	}
}

// TestShrinkDeterministic pins acceptance criterion (c): equal inputs
// shrink to byte-equal rendered traces, run to run.
func TestShrinkDeterministic(t *testing.T) {
	sc, _ := scenario.Get("pb-crash-failover")
	a, errA := Shrink(sc, 1, Options{})
	b, errB := Shrink(sc, 1, Options{})
	if errA != nil || errB != nil {
		t.Fatalf("Shrink errors: %v, %v", errA, errB)
	}
	if a.Render() != b.Render() {
		t.Errorf("renders differ:\n--- first\n%s\n--- second\n%s", a.Render(), b.Render())
	}
	if a.Steps != b.Steps {
		t.Errorf("step counts differ: %d vs %d", a.Steps, b.Steps)
	}
}

// TestShrinkGolden diffs the rendered counterexample against the checked-in
// golden trace (regenerate with -update). The golden file is the
// human-readable artifact the whole pipeline exists to produce; any change
// to the scheduler, the recorder, or the shrinker that moves it is visible
// in review.
func TestShrinkGolden(t *testing.T) {
	sc, _ := scenario.Get("pb-crash-failover")
	mt, err := Shrink(sc, 1, Options{})
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	got := mt.Render()
	path := filepath.Join("testdata", "pb_crash_failover_seed1.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("rendered trace drifted from golden:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestShrinkNotFailing pins the guard: shrinking a passing (scenario,
// seed) reports ErrNotFailing instead of minimizing nothing.
func TestShrinkNotFailing(t *testing.T) {
	sc, _ := scenario.Get("nice")
	if _, err := Shrink(sc, 1, Options{}); err != ErrNotFailing {
		t.Errorf("err = %v, want ErrNotFailing", err)
	}
}

// TestShrinkBudget pins the cap: a one-step budget returns the best-so-far
// trace with ErrBudget rather than running away.
func TestShrinkBudget(t *testing.T) {
	sc, _ := scenario.Get("pb-crash-failover")
	mt, err := Shrink(sc, 1, Options{MaxSteps: 2})
	if err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	if mt.Steps > 2+1 { // baseline + at most one trial overshoot
		t.Errorf("spent %d steps on a 2-step budget", mt.Steps)
	}
	if mt.Minimal {
		t.Error("budget-cut shrink claims minimality")
	}
}

// TestSweepShrinkFailing pins the sweep's shrink pass: Seeds over a
// failing sweep's seeds shrinks the first three, in seed order, into
// rendered counterexamples; a budget-cut shrink still counts.
func TestSweepShrinkFailing(t *testing.T) {
	sc, _ := scenario.Get("pb-crash-failover")
	d := scenario.Sweep(sc, scenario.Seeds(1, 8), 0)
	if len(d.Failing) != 8 {
		t.Fatalf("failing = %v, want all 8", d.Failing)
	}
	render := func(opt Options) []string {
		var out []string
		for _, mt := range Seeds(sc, d.Failing, opt) {
			out = append(out, mt.Render())
		}
		return out
	}
	got := render(Options{})
	if len(got) != 3 {
		t.Fatalf("counterexamples = %d, want 3 (bounded)", len(got))
	}
	for i, cx := range got {
		if want := fmt.Sprintf("seed %d\n", d.Failing[i]); !strings.Contains(cx, want) {
			t.Errorf("counterexample %d is not seed %d's, in seed order:\n%s", i, d.Failing[i], cx)
		}
	}
	// The traces are deterministic: equal inputs shrink to equal traces.
	if again := render(Options{}); !reflect.DeepEqual(got, again) {
		t.Errorf("counterexamples differ run to run:\n%v\nvs\n%v", got, again)
	}
	// A shrink cut by its budget still yields its best-so-far trace.
	if cut := render(Options{MaxSteps: 2}); len(cut) != 3 || !strings.Contains(cut[0], "budget exhausted") {
		t.Errorf("budget-cut shrinks yield %d traces, want 3 marked unverified:\n%v", len(cut), cut)
	}
	// A sweep with no failing seed shrinks nothing.
	if got := Seeds(sc, nil, Options{}); len(got) != 0 {
		t.Errorf("no seeds shrink into %d traces", len(got))
	}
}

// TestShrinkBatchedDeadline pins the shrink pipeline on the throughput
// plane: a batched, pipelined run that fails by not answering (slot-owner
// crash under injected failures and a tight deadline) must shrink like
// any per-request run — batched single-cluster runs live inside the
// record/replay plane, so a failing sweep seed from the batch sweeps has
// the same counterexample path as the rest of the repo. The failure-class
// predicate holds: the minimal trace still times out without answering.
func TestShrinkBatchedDeadline(t *testing.T) {
	sc := scenario.Scenario{
		Name:        "batch-deadline",
		Description: "slot owner crash + injected failures under a tight deadline",
		Batch:       core.BatchConfig{Enabled: true, MaxSize: 8, Window: 100 * time.Microsecond, Pipeline: 4},
		Accounts:    2,
		Workload:    &workload.Spec{Requests: 4, Accounts: 2},
		Failures:    []scenario.Failure{{Action: "debit", Prob: 1, Budget: 4}},
		Plan:        scenario.NewPlan().CrashAt(1*time.Millisecond, 0),
		Deadline:    3 * time.Millisecond,
	}
	base := scenario.Execute(sc, 2)
	if base.Replied || !base.TimedOut {
		t.Fatalf("scenario does not fail by deadline on seed 2: %+v", base)
	}
	mt, err := Shrink(sc, 2, Options{})
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if !mt.Minimal {
		t.Error("trace not verified 1-minimal")
	}
	o := scenario.Run(sc, 2, scenario.RunOptions{Replay: mt.Replay()})
	if o.Replied || !o.TimedOut {
		t.Errorf("replayed minimal trace no longer fails by deadline: %+v", o)
	}
	// Determinism: equal inputs shrink to byte-equal traces.
	again, err := Shrink(sc, 2, Options{})
	if err != nil {
		t.Fatalf("second Shrink: %v", err)
	}
	if mt.Render() != again.Render() {
		t.Errorf("renders differ:\n--- first\n%s\n--- second\n%s", mt.Render(), again.Render())
	}
}

// TestShrinkPowerCycleGolden runs the shrink pipeline over a failing
// total-loss run: the registered power-cycle scenario under a deadline
// that strikes mid-blackout fails by not answering. The honest minimum
// for a starvation failure is message suppression, not the crash ops —
// with the reply path suppressed and no suspicion, the client starves no
// matter what the replicas do — so the golden pins exactly that: a
// near-empty schedule explaining the timeout, byte-stable run to run.
func TestShrinkPowerCycleGolden(t *testing.T) {
	sc, ok := scenario.Get("power-cycle")
	if !ok {
		t.Fatal("power-cycle not registered")
	}
	sc.Deadline = 4 * time.Millisecond
	base := scenario.Execute(sc, 1)
	if base.Replied || !base.TimedOut {
		t.Fatalf("power-cycle under a 4ms deadline does not fail on seed 1: %+v", base)
	}
	// The failure under investigation is "the client starves
	// mid-protocol": stable storage must have been written, so the submit
	// reaching a replica survives the shrink.
	mt, err := Shrink(sc, 1, Options{Failing: func(o scenario.Outcome) bool {
		return !o.Replied && o.TimedOut && o.WALAppends > 0
	}})
	if err != nil {
		t.Fatalf("Shrink: %v (steps=%d)", err, mt.Steps)
	}
	if !mt.Minimal {
		t.Error("trace not verified 1-minimal")
	}
	if mt.Deliveries == 0 {
		t.Errorf("empty minimal schedule; the predicate should keep the submit delivery")
	}
	// The minimal trace still reproduces the deadline failure.
	o := scenario.Run(sc, 1, scenario.RunOptions{Replay: mt.Replay()})
	if o.Replied || !o.TimedOut {
		t.Errorf("replayed minimal trace no longer fails by deadline: %+v", o)
	}

	got := mt.Render()
	path := filepath.Join("testdata", "power_cycle_deadline_seed1.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("rendered trace drifted from golden:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestShrinkKeepsCrashRestartPairs pins the atomic edit unit. The planted
// primary-backup duplication needs its crash op; a restart paired onto
// that crash (inert on the baseline runtime — no restart surface) must
// survive the shrink anyway, because removal is by pair: stripping the
// restart alone would present a crash→restart schedule as a permanent
// crash, a different schedule class than the one that failed. The
// un-paired shrinker removed exactly that restart.
func TestShrinkKeepsCrashRestartPairs(t *testing.T) {
	sc, ok := scenario.Get("pb-crash-failover")
	if !ok {
		t.Fatal("pb-crash-failover not registered")
	}
	base := sc.Plan.Ops()
	if len(base) != 1 || base[0].Kind != scenario.OpCrash {
		t.Fatalf("pb-crash-failover plan changed shape: %+v", base)
	}
	sc.Plan = sc.Plan.Clone().RestartAt(base[0].At+2*time.Millisecond, base[0].Replica)
	mt, err := Shrink(sc, 1, Options{})
	if err != nil {
		t.Fatalf("Shrink: %v (steps=%d)", err, mt.Steps)
	}
	if mt.Ops != 2 {
		t.Fatalf("minimal plan keeps %d ops, want the crash/restart pair:\n%s", mt.Ops, mt.Plan.String())
	}
	ops := mt.Plan.Ops()
	if ops[0].Kind != scenario.OpCrash || ops[1].Kind != scenario.OpRestart || !ops[0].Paired(ops[1]) {
		t.Errorf("minimal plan is not a crash/restart pair: %+v", ops)
	}
	// The pair-shrunk trace still reproduces the duplication.
	o := scenario.Run(sc, 1, scenario.RunOptions{Replay: mt.Replay()})
	if o.XAble || !o.Replied {
		t.Errorf("replayed minimal trace no longer fails: %+v", o)
	}
}

// TestPairSet pins the pairing rule on a hand-built plan, shard scopes
// included: a crash pairs forward to the nearest restart of the same
// replica under the same shard scope, a restart pairs backward, and ops
// of other kinds (or with no partner) shrink alone.
func TestPairSet(t *testing.T) {
	p := scenario.NewPlan().
		CrashAt(1*time.Millisecond, 0).                                  // 0: pairs with 3
		OnShard(2, scenario.NewPlan().CrashAt(1*time.Millisecond, 0)).   // 1: same replica, shard scope — pairs with 4
		SuspectAt(2*time.Millisecond, "replica-1").                      // 2: alone
		RestartAt(5*time.Millisecond, 0).                                // 3
		OnShard(2, scenario.NewPlan().RestartAt(6*time.Millisecond, 0)). // 4
		CrashAt(7*time.Millisecond, 1)                                   // 5: no restart — alone
	ops := p.Ops()
	want := map[int][]int{
		0: {0, 3}, 1: {1, 4}, 2: {2}, 3: {0, 3}, 4: {1, 4}, 5: {5},
	}
	for i, idxs := range want {
		set := pairSet(ops, i)
		if len(set) != len(idxs) {
			t.Errorf("pairSet(%d) = %v, want %v", i, set, idxs)
			continue
		}
		for _, j := range idxs {
			if !set[j] {
				t.Errorf("pairSet(%d) = %v, want %v", i, set, idxs)
			}
		}
	}
}

// TestShrinkSharded pins the one record/replay path on the sharded
// runtime: its groups record into one log, each entry stamped with its
// group, so the shrinker edits a sharded run as it does a single cluster.
// The registered sharded scenarios pass, so the failure is a predicate
// only a test sets: the cleaners' cancellations the crash of every
// group's round-1 owner causes on shard-crash-failover seed 1. The trace
// must shrink, keep deliveries of several groups, and its artifact must
// name the groups and replay, through WriteJSON, LoadShrinkLog and Run, to
// the minimal outcome.
func TestShrinkSharded(t *testing.T) {
	sc, _ := scenario.Get("shard-crash-failover")
	base := scenario.Execute(sc, 1)
	if base.Cancels == 0 {
		t.Fatal("no cancellation to preserve: the crash of the owners no longer leaves cleanup work")
	}
	mt, err := Shrink(sc, 1, Options{Failing: func(o scenario.Outcome) bool { return o.Cancels >= base.Cancels }})
	if err != nil {
		t.Fatalf("Shrink: %v (steps=%d)", err, mt.Steps)
	}
	if mt.Deliveries >= mt.BaseDeliveries {
		t.Errorf("no deliveries removed: %d of %d", mt.Deliveries, mt.BaseDeliveries)
	}
	groups := map[int]bool{}
	for _, e := range mt.Log.Entries() {
		if e.Verdict == schedule.Delivered {
			groups[e.Group] = true
		}
	}
	if len(groups) < 2 {
		t.Errorf("the kept deliveries belong to %d group(s), want several:\n%s", len(groups), mt.Render())
	}

	var buf bytes.Buffer
	if err := mt.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"group": `)) {
		t.Error("the artifact names no group")
	}
	loaded, err := LoadShrinkLog(&buf)
	if err != nil {
		t.Fatalf("LoadShrinkLog: %v", err)
	}
	o, err := loaded.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := mt.Outcome
	want.Schedule = nil
	if !reflect.DeepEqual(o, want) {
		t.Errorf("the artifact's replay differs from the minimal run:\nreplayed: %+v\nminimal:  %+v", o, want)
	}
}
