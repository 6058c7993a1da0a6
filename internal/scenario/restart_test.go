package scenario

import (
	"reflect"
	"testing"
	"time"

	"xability/internal/core"
	"xability/internal/simnet"
)

// TestCTOrphanedProposerLiveness pins a CT consensus deadlock found by the
// restart-random sweep (seed 5, shrunk to the fixed schedule below): the
// round-2 owner executes, broadcasts its phase-1 estimate, and crashes
// before the commit — orphaning an instance every survivor discovered
// passively, with ⊥ estimates. The phase-2 coordinator gather requires at
// least one real estimate, and before the fix retransmissions resent the
// message snapshotted at round start (still ⊥) while the dedup ignored the
// late real Propose, so the gather wedged forever. The fix rebuilds
// retransmissions from live instance state and lets a later real estimate
// upgrade a ⊥ one in the gather. A regression shows up as TimedOut here,
// not as a hang, thanks to the Deadline watchdog.
func TestCTOrphanedProposerLiveness(t *testing.T) {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	sc := Scenario{
		Name:        "ct-orphaned-proposer",
		Description: "owner crashes after phase-1 broadcast; survivors must still decide",
		Consensus:   core.ConsensusCT,
		Durable:     true,
		Failures:    []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan: NewPlan().
			PartitionAt(us(701754), []simnet.ProcessID{"replica-0"}, []simnet.ProcessID{"replica-1", "replica-2", "client"}).
			SuspectAt(us(701754), "replica-0").
			ClientSuspectAt(us(701754), "replica-0").
			HealAt(us(2469558)).
			UnsuspectAt(us(2769558), "replica-0").
			CrashAt(us(2842150), 1),
		Settle:   20 * time.Millisecond,
		Deadline: 200 * time.Millisecond,
	}
	o := Execute(sc, 5)
	if o.TimedOut {
		t.Fatal("run hit the deadline watchdog: the crash-orphaned CT instance deadlocked again")
	}
	if !o.Replied || !o.XAble {
		t.Fatalf("replied=%v x-able=%v, want both: %+v", o.Replied, o.XAble, o.Report)
	}
	if o.EffectsInForce != 1 {
		t.Fatalf("effects in force = %d, want exactly 1", o.EffectsInForce)
	}
}

// TestRestartNeverCrashedIsNoOp pins RestartAt's contract on a live
// replica: RestartServer reports false and the run is bit-equal — SimTime
// and message counts included — to the same run without the op. The
// schedule gains one discrete no-op event and nothing else.
func TestRestartNeverCrashedIsNoOp(t *testing.T) {
	base := Scenario{
		Name:      "restart-live-noop",
		Consensus: core.ConsensusCT,
		Durable:   true,
		Failures:  []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Settle:    20 * time.Millisecond,
	}
	fired := false
	restarted := true
	withOp := base
	withOp.Plan = NewPlan().add(3*time.Millisecond, "restart live replica 1", func(tg Target) {
		fired = true
		restarted = tg.(Restarter).RestartServer(1)
	})
	for seed := int64(1); seed <= 3; seed++ {
		plain := Execute(base, seed)
		noop := Execute(withOp, seed)
		plain.History, noop.History = nil, nil
		if !reflect.DeepEqual(plain, noop) {
			t.Errorf("seed %d: restart-on-live run differs from plain run:\nplain: %+v\nnoop:  %+v",
				seed, plain, noop)
		}
	}
	if !fired {
		t.Fatal("the restart op never fired")
	}
	if restarted {
		t.Error("RestartServer on a never-crashed replica returned true, want false")
	}
}

// TestRestartMinoritySweepExactlyOnce is the claim-at-scale version of the
// restart-minority row: across a seed population, crash→restart of the
// owner keeps effects exactly once, the duplicate-replay audit stays
// clean, and the write-ahead log actually carried state (a durable run
// with zero appends would mean recovery was never exercised).
func TestRestartMinoritySweepExactlyOnce(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 15
	}
	sc, ok := Get("restart-minority")
	if !ok {
		t.Fatal("restart-minority not registered")
	}
	d := Sweep(sc, Seeds(1, n), 0)
	if d.XAbleRate() != 1.0 || d.RepliedRate() != 1.0 {
		t.Errorf("x-able %.4f replied %.4f over %d seeds, want 1.0; failing: %v",
			d.XAbleRate(), d.RepliedRate(), d.Runs, d.Failing)
	}
	if d.Effects[1] != n {
		t.Errorf("effects histogram %v, want all mass on 1", d.Effects)
	}
	if d.ReplayDuplicates != 0 {
		t.Errorf("%d runs re-applied an already-in-force effect after restart, want 0", d.ReplayDuplicates)
	}
	if d.WALAppends == 0 {
		t.Error("no WAL appends across a durable sweep; stable storage was never written")
	}
}

// TestRestartOutcomesByteDeterministic extends the reset-and-rerun
// contract to the durable scenarios: a crash→restart run on a recycled
// network must be bit-equal to a fresh-world Execute of the same
// (scenario, seed) — reviving a process may not disturb the per-sender
// delay streams or the WAL accounting.
func TestRestartOutcomesByteDeterministic(t *testing.T) {
	for _, name := range []string{"restart-minority", "restart-random"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		scratch := &runScratch{}
		for seed := int64(1); seed <= 5; seed++ {
			fresh := Execute(sc, seed)
			reused := execute(sc, seed, RunOptions{}, scratch)
			fresh.History, reused.History = nil, nil
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("%s seed %d: reused-network outcome differs from fresh run:\nfresh:  %+v\nreused: %+v",
					name, seed, fresh, reused)
			}
		}
		if scratch.net == nil {
			t.Errorf("%s: scratch abandoned its network (Reset failed); reuse never engaged", name)
		}
	}
}
