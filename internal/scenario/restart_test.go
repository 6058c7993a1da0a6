package scenario

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"xability/internal/core"
	"xability/internal/schedule"
	"xability/internal/simnet"
)

// TestCTOrphanedProposerLiveness pins a CT consensus deadlock: a crash can
// orphan an instance every live participant discovered passively, with ⊥
// estimates. The phase-2 coordinator gather requires at least one real
// estimate, and before the fix retransmissions resent the message
// snapshotted at round start (still ⊥) while the dedup ignored the late
// real Propose, so the gather wedged forever. The fix rebuilds
// retransmissions from live instance state and lets a later real estimate
// upgrade a ⊥ one in the gather. A regression shows up as TimedOut here,
// not as a hang, thanks to the Deadline watchdog.
//
// Whether a run reaches that state depends on message timing, so the test
// replays a recorded schedule instead of drawing delays from a seed: a
// seed's delays change whenever the generator behind them does, and a
// timing-dependent pin then passes with or without the fix. The plan is
// restart-random-total seed 10's, materialized, and the schedule is that
// run as recorded with the fix present and one delay stream per network
// (174 messages). With the two ct.go edits reverted (no gather upgrade,
// retransmissions resend the round's first estimate) the run follows the
// log to the wedge and times out, at 282 messages. The earlier pin, seed
// 125, recorded when each sender drew delays from a stream of its own,
// re-recorded under the one stream no longer reaches the wedge without
// the fix.
func TestCTOrphanedProposerLiveness(t *testing.T) {
	sc := Scenario{
		Name:        "ct-orphaned-proposer",
		Description: "a power cycle strands a passively discovered CT instance; the restarted replicas must still decide",
		Consensus:   core.ConsensusCT,
		Durable:     true,
		Failures:    []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan: NewPlan().
			CrashAt(3885961*time.Nanosecond, 2).
			RestartAt(5311898*time.Nanosecond, 2).
			CrashAt(4445857*time.Nanosecond, 1).
			RestartAt(5465766*time.Nanosecond, 1).
			DelayStormAt(3167911*time.Nanosecond, 1081971*time.Nanosecond, 6.123330838425003).
			DelayStormAt(3307016*time.Nanosecond, 719301*time.Nanosecond, 14.922213642102834).
			CrashAt(720895*time.Nanosecond, 0).
			RestartAt(3970352*time.Nanosecond, 0),
		Settle:   25 * time.Millisecond,
		Deadline: 200 * time.Millisecond,
	}
	log := loadSchedule(t, "testdata/ct_orphaned_proposer.schedule.jsonl")
	o := Run(sc, 10, RunOptions{Replay: &schedule.Replay{Log: log}})
	if o.TimedOut {
		t.Fatal("run hit the deadline watchdog: the crash-orphaned CT instance deadlocked again")
	}
	if !o.Replied || !o.XAble {
		t.Fatalf("replied=%v x-able=%v, want both: %+v", o.Replied, o.XAble, o.Report)
	}
	if o.EffectsInForce != 1 {
		t.Fatalf("effects in force = %d, want exactly 1", o.EffectsInForce)
	}
	// The pin is only armed while the run stays on the recording: sends
	// past the log fall back to seeded draws.
	if o.Messages != log.Len() {
		t.Fatalf("run sent %d messages, the recorded schedule has %d: the protocol left the recording, re-record it", o.Messages, log.Len())
	}
}

// loadSchedule reads a recorded delivery schedule: one JSON-encoded
// schedule.Entry per line, in send order.
func loadSchedule(t *testing.T, path string) *schedule.Log {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log := schedule.NewLog()
	for dec := json.NewDecoder(f); dec.More(); {
		var e schedule.Entry
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("%s: entry %d: %v", path, log.Len(), err)
		}
		log.Append(e)
	}
	return log
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
	withOp.Plan = NewPlan().add(3*time.Millisecond, "restart live replica 1", func(groups []Target) {
		fired = true
		restarted = groups[0].(Restarter).RestartServer(1)
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
// (scenario, seed) — reviving a process may not disturb the network's
// delay stream or the WAL accounting.
func TestRestartOutcomesByteDeterministic(t *testing.T) {
	for _, name := range []string{"restart-minority", "restart-random"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		scratch := &runScratch{}
		var first *simnet.Network // what seed 1 built and every later seed must recycle
		for seed := int64(1); seed <= 5; seed++ {
			fresh := Execute(sc, seed)
			reused := execute(sc, seed, RunOptions{}, scratch)
			if seed == 1 {
				first = firstNetwork(scratch)
			}
			fresh.History, reused.History = nil, nil
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("%s seed %d: reused-network outcome differs from fresh run:\nfresh:  %+v\nreused: %+v",
					name, seed, fresh, reused)
			}
		}
		if firstNetwork(scratch) != first {
			t.Errorf("%s: scratch abandoned its network (Reset failed); reuse never engaged", name)
		}
	}
}
