package scenario

import (
	"reflect"
	"testing"
)

// sweepExactlyOnce drives a registered durable scenario across a seed
// population and requires the full robustness contract: every run
// replies, every run verifies x-able, effects land exactly once, the
// duplicate-replay audit stays clean, and stable storage was actually
// written (a durable sweep with zero appends means recovery was never
// exercised).
func sweepExactlyOnce(t *testing.T, name string, n int) VerdictDistribution {
	t.Helper()
	sc, ok := Get(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	d := Sweep(sc, Seeds(1, n), 0)
	if d.XAbleRate() != 1.0 || d.RepliedRate() != 1.0 {
		t.Errorf("%s: x-able %.4f replied %.4f over %d seeds, want 1.0; failing: %v",
			name, d.XAbleRate(), d.RepliedRate(), d.Runs, d.Failing)
	}
	if d.Effects[1] != n {
		t.Errorf("%s: effects histogram %v, want all mass on 1", name, d.Effects)
	}
	if d.ReplayDuplicates != 0 {
		t.Errorf("%s: %d runs re-applied an already-in-force effect after restart, want 0",
			name, d.ReplayDuplicates)
	}
	if d.WALAppends == 0 {
		t.Errorf("%s: no WAL appends across a durable sweep; stable storage was never written", name)
	}
	return d
}

// TestRestartMajoritySweepExactlyOnce: two of three replicas crash and
// restart. For the outage window only one replica is live — no quorum —
// so progress must stall and then resume exactly-once when the logs come
// back.
func TestRestartMajoritySweepExactlyOnce(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 15
	}
	sweepExactlyOnce(t, "restart-majority", n)
}

// TestPowerCycleSweepExactlyOnce is the total-loss claim at scale: all
// replicas crash at one instant, so every decision and applied effect
// must come back from the write-ahead logs alone, and the client's
// retries across the blackout must not double-apply.
func TestPowerCycleSweepExactlyOnce(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 15
	}
	sweepExactlyOnce(t, "power-cycle", n)
}

// TestRandomMajorityAndTotalLossSweeps covers the generator's lifted
// crash budgets: drawn schedules may take down a quorum (or everyone)
// as long as every crash pairs with a restart inside the horizon.
func TestRandomMajorityAndTotalLossSweeps(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 15
	}
	sweepExactlyOnce(t, "restart-random-majority", n)
	sweepExactlyOnce(t, "restart-random-total", n)
}

// TestPowerCycleByteDeterministic extends the reset-and-rerun contract
// to the total-loss scenarios: a power-cycle run on a recycled network
// must be bit-equal to a fresh-world Execute of the same (scenario,
// seed).
func TestPowerCycleByteDeterministic(t *testing.T) {
	for _, name := range []string{"power-cycle", "restart-majority", "restart-random-total"} {
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
	}
}

// TestCompactionIsOutcomeInvariant runs the total-loss scenarios with
// automatic WAL compaction armed (zero snapshot tariff) and requires the
// client-visible outcome to be byte-identical to the uncompacted run:
// recovery replays snapshot-then-suffix instead of the full log, and the
// difference must be invisible everywhere except the storage counters —
// where compaction must actually have fired and reclaimed records.
func TestCompactionIsOutcomeInvariant(t *testing.T) {
	for _, name := range []string{"power-cycle", "restart-random-total"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		compacting := sc
		compacting.WALCompact = 8
		fired := false
		for seed := int64(1); seed <= 10; seed++ {
			plain := Execute(sc, seed)
			folded := Execute(compacting, seed)
			if folded.WALCompactions > 0 {
				fired = true
				if folded.WALLiveRecords >= plain.WALLiveRecords {
					t.Errorf("%s seed %d: compaction fired but reclaimed nothing (%d live vs %d uncompacted)",
						name, seed, folded.WALLiveRecords, plain.WALLiveRecords)
				}
			}
			// Storage counters legitimately differ; everything the client,
			// checker, or auditor sees must not.
			plain.History, folded.History = nil, nil
			plain.WALCompactions, folded.WALCompactions = 0, 0
			plain.WALLiveRecords, folded.WALLiveRecords = 0, 0
			if !reflect.DeepEqual(plain, folded) {
				t.Errorf("%s seed %d: compaction is schedule-visible:\nplain:  %+v\nfolded: %+v",
					name, seed, plain, folded)
			}
		}
		if !fired {
			t.Errorf("%s: no compaction fired across 10 seeds at threshold 8; the invariant was never exercised", name)
		}
	}
}
