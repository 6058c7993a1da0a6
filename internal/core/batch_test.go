package core

import (
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/simnet"
)

// batchedCfg is the base configuration of the batched-plane tests: slot
// batching on with a short window so single-client tests form singleton
// batches quickly.
func batchedCfg(seed int64) ClusterConfig {
	return ClusterConfig{
		Replicas: 3,
		Seed:     seed,
		Batch:    BatchConfig{Enabled: true, MaxSize: 8, Window: 50 * time.Microsecond, Pipeline: 4},
	}
}

func TestBatchedNiceRunIdempotent(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(1))
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct")); v != "100" {
		t.Errorf("read = %q, want 100", v)
	}
	rep := tc.checkRun(t)
	if !rep.R3Strict {
		t.Error("batched nice run should satisfy strict R3")
	}
}

func TestBatchedNiceRunUndoable(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(2))
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
		t.Errorf("debit = %q", v)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90 (exactly one debit)", got)
	}
	rep := tc.checkRun(t)
	if !rep.R3Strict {
		t.Error("batched nice run should satisfy strict R3")
	}
	if n := tc.Env.InForceTotal("debit", "acct"); n != 1 {
		t.Errorf("in-force debit effects = %d, want 1", n)
	}
}

func TestBatchedSequence(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(3))
	for i := 0; i < 6; i++ {
		if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
			t.Fatalf("debit %d = %q", i, v)
		}
	}
	if got := tc.world.get("acct"); got != 40 {
		t.Errorf("balance = %d, want 40 (six debits)", got)
	}
	tc.checkRun(t)
}

func TestBatchedCrashFailover(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(4))
	done := make(chan action.Value, 1)
	clk := tc.Clock()
	clk.Go(func() {
		done <- tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	})
	clk.GoAfter(30*time.Microsecond, func() {
		tc.CrashServer(0)
		tc.ClientSuspect("replica-0", true)
		tc.SuspectEverywhere("replica-0", true)
	})
	v := <-done
	if v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90", got)
	}
	tc.checkRun(t)
}

func TestBatchedFalseSuspicion(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(5))
	done := make(chan action.Value, 1)
	clk := tc.Clock()
	clk.Go(func() {
		done <- tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	})
	// The owner stays alive; every replica (but not the client) falsely
	// suspects it mid-slot, forcing a cleaning-mode abort and a round-2
	// takeover of the same batch.
	clk.GoAfter(120*time.Microsecond, func() {
		tc.SuspectEverywhere("replica-0", true)
	})
	clk.GoAfter(3*time.Millisecond, func() {
		tc.SuspectEverywhere("replica-0", false)
	})
	if v := <-done; v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90 (exactly one debit in force)", got)
	}
	tc.checkRun(t)
}

func TestBatchedCTConsensus(t *testing.T) {
	cfg := batchedCfg(6)
	cfg.Consensus = ConsensusCT
	tc := newBankCluster(t, cfg)
	for i := 0; i < 3; i++ {
		if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
			t.Fatalf("debit %d = %q", i, v)
		}
	}
	if got := tc.world.get("acct"); got != 70 {
		t.Errorf("balance = %d, want 70", got)
	}
	tc.checkRun(t)
}

func TestBatchedResubmissionIdempotent(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(7))
	req := tc.Client.Tag(action.NewRequest("debit", "acct"))
	v1, err := tc.Client.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v2, err := tc.Client.Submit(req) // same ID: must not duplicate effects
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if v1 != v2 {
		t.Errorf("resubmission reply %q differs from original %q", v2, v1)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90 (R1)", got)
	}
}

func TestCostModelChargesVirtualTime(t *testing.T) {
	mk := func(costs CostModel) time.Duration {
		cfg := ClusterConfig{Replicas: 3, Seed: 8, Costs: costs}
		// Attached before any replica starts, as newOpenLoopRun is: the
		// clock cannot run ahead between NewCluster and the first submit,
		// so both runs measure the submits alone.
		cfg.Net = simnet.Config{Seed: cfg.Seed, MaxDelay: 200 * time.Microsecond}
		cfg.Network = simnet.New(cfg.Net)
		clk := cfg.Network.Clock()
		clk.Enter()
		defer clk.Exit()
		tc := newBankCluster(t, cfg)
		defer tc.Stop() // while attached: nothing free-runs after the Exit
		for i := 0; i < 4; i++ {
			tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
		}
		return clk.Now()
	}
	free := mk(CostModel{})
	charged := mk(CostModel{Consensus: 200 * time.Microsecond, Exec: 100 * time.Microsecond})
	if charged <= free {
		t.Errorf("charged run took %v, free run %v: cost model should stretch virtual time", charged, free)
	}
}
