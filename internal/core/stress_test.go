package core

import (
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/simnet"
)

// Stress scenarios for E4: wider clusters, double crashes, sustained
// failure injection across multi-request sequences, and combined
// substrate stress (CT consensus under false suspicion).

func TestFiveReplicasDoubleCrash(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 5, Seed: 31})
	tc.Env.SetFailures("debit", 1.0, 10, 0)

	clk := tc.Clock()
	clk.Go(func() {
		clk.Sleep(2 * time.Millisecond)
		tc.CrashServer(0)
		tc.ClientSuspect("replica-0", true)
		clk.Sleep(2 * time.Millisecond)
		tc.CrashServer(1)
		tc.ClientSuspect("replica-1", true)
	})

	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	tc.waitFor(t, 5*time.Second, func() bool { return tc.world.get("acct") == 90 })
	if n := tc.Env.InForceTotal("debit", "acct"); n != 1 {
		t.Errorf("in-force effects = %d, want 1", n)
	}
	tc.checkRun(t)
}

func TestSequenceWithSustainedFailures(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 32})
	// Every action type fails intermittently for the whole run.
	tc.Env.SetFailures("debit", 0.5, 8, 0.5)
	tc.Env.SetFailures("read", 0.5, 8, 0.3)
	tc.Env.SetFailures(action.Cancel("debit"), 0.5, 6, 0)
	tc.Env.SetFailures(action.Commit("debit"), 0.5, 6, 0)

	for i := 0; i < 5; i++ {
		if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
			t.Fatalf("debit %d = %q", i, v)
		}
	}
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct")); v != "50" {
		t.Errorf("read = %q, want 50", v)
	}
	tc.checkRun(t)
}

func TestCTWithFalseSuspicion(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 33, Consensus: ConsensusCT})
	tc.Env.SetFailures("debit", 1.0, 4, 0)
	clk := tc.Clock()
	clk.Go(func() {
		clk.Sleep(3 * time.Millisecond)
		tc.Suspect("replica-1", "replica-0", true)
		tc.Suspect("replica-2", "replica-0", true)
	})
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	tc.waitFor(t, 10*time.Second, func() bool { return tc.world.get("acct") == 90 })
	if n := tc.Env.InForceTotal("debit", "acct"); n != 1 {
		t.Errorf("in-force effects = %d, want 1", n)
	}
	tc.checkRun(t)
}

func TestSuspicionStormStaysExactlyOnce(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 34})
	tc.Env.SetFailures("debit", 0.8, 12, 0.3)

	clk := tc.Clock()
	stop := make(chan struct{})
	clk.Go(func() {
		// Rotate false suspicions of whichever replica owns the request.
		targets := []string{"replica-0", "replica-1", "replica-2"}
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			target := simnet.ProcessID(targets[i%3])
			tc.SuspectEverywhere(target, true)
			clk.Sleep(time.Millisecond)
			tc.SuspectEverywhere(target, false)
			i++
			clk.Sleep(500 * time.Microsecond)
		}
	})

	for i := 0; i < 3; i++ {
		if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
			t.Fatalf("debit %d = %q", i, v)
		}
	}
	close(stop)
	tc.waitFor(t, 10*time.Second, func() bool { return tc.world.get("acct") == 70 })
	if n := tc.Env.InForceTotal("debit", "acct"); n != 3 {
		t.Errorf("in-force effects = %d, want 3 (one per request)", n)
	}
	tc.checkRun(t)
}

func TestManyAccountsInterleaved(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 35})
	accounts := []string{"acct", "acct2", "acct3"}
	tc.world.mu.Lock()
	tc.world.balance["acct2"] = 100
	tc.world.balance["acct3"] = 100
	tc.world.mu.Unlock()

	for round := 0; round < 3; round++ {
		for _, a := range accounts {
			if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", action.Value(a))); v != "debited" {
				t.Fatalf("debit %s = %q", a, v)
			}
		}
	}
	for _, a := range accounts {
		if got := tc.world.get(a); got != 70 {
			t.Errorf("%s = %d, want 70", a, got)
		}
	}
	rep := tc.checkRun(t)
	if len(rep.Outputs) != 9 {
		t.Errorf("outputs = %d, want 9", len(rep.Outputs))
	}
}

func TestClientAttemptAccounting(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 36})
	tc.CrashServer(0)
	tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct"))
	if tc.Client.Attempts() < 2 {
		t.Errorf("attempts = %d, want ≥ 2 (crashed first target)", tc.Client.Attempts())
	}
	reqs, replies := tc.Client.Log()
	if len(reqs) != 1 || len(replies) != 1 {
		t.Errorf("log: %d requests, %d replies", len(reqs), len(replies))
	}
}

func TestSubmitRequiresTaggedRequest(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 37})
	if _, err := tc.Client.Submit(action.NewRequest("read", "acct")); err == nil {
		t.Error("untagged Submit should error")
	}
}

func TestServerStopIsIdempotent(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 38})
	tc.Servers[0].Stop()
	tc.Servers[0].Stop()
	tc.Servers[0].Crash()
}
