package core

import (
	"sync"
	"testing"

	"xability/internal/action"
	"xability/internal/vclock"
)

// joinAll runs each fn on a clock goroutine of its own, all spawned at the
// current instant, and waits on the clock until every one has returned:
// the wait is what runs them.
func joinAll(clk *vclock.Virtual, fns ...func()) {
	var mu sync.Mutex
	joined := clk.NewCond(&mu)
	pending := len(fns)
	for _, fn := range fns {
		clk.Go(func() {
			fn()
			mu.Lock()
			pending--
			mu.Unlock()
			joined.Broadcast()
		})
	}
	mu.Lock()
	for pending > 0 {
		joined.Wait()
	}
	mu.Unlock()
}

// TestConcurrentSubmitsShareOneMailbox pins the client stub's reply-stash
// contract: two Submits in flight on one client share one mailbox, so
// whichever drains first routinely pulls the other's reply out. Before the
// stash, that reply was dropped as "stale" and the other Submit waited for
// a suspicion that never comes — the hang the first fault plan against
// examples/threetier flushed out (every middle-tier replica submits
// through the one shared back-end stub, and active-replication drift makes
// those submits concurrent). With the stash, each Submit finds its reply
// either in the mailbox or left for it by a sibling.
func TestConcurrentSubmitsShareOneMailbox(t *testing.T) {
	tc := newBankCluster(t, ClusterConfig{Replicas: 3, Seed: 9})
	accts := []string{"acct", "acct2", "acct3", "acct4"}
	got := make([]action.Value, len(accts))
	var submits []func()
	for i, acct := range accts {
		submits = append(submits, func() {
			got[i] = tc.Client.SubmitUntilSuccess(action.NewRequest("read", action.Value(acct)))
		})
	}
	joinAll(tc.Net.Clock(), submits...)
	want := []action.Value{"100", "0", "0", "0"}
	for i, acct := range accts {
		if got[i] != want[i] {
			t.Errorf("read(%s) = %q, want %q", acct, got[i], want[i])
		}
	}
}
