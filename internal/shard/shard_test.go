package shard

import (
	"fmt"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/simnet"
	"xability/internal/sm"
	"xability/internal/workload"
)

// newDeployment assembles a sharded bank: each group owns its own Bank
// (its slice of the keyspace), all accounts opened at 100.
func newDeployment(t *testing.T, shards int, seed int64) (*Cluster, []*workload.Bank) {
	t.Helper()
	banks := make([]*workload.Bank, shards)
	for s := range banks {
		banks[s] = workload.NewBank(64, 100)
	}
	c := New(Config{
		Shards: shards,
		Group: core.ClusterConfig{
			Replicas: 3,
			Seed:     seed,
			Net:      simnet.Config{MaxDelay: 200 * time.Microsecond},
			Registry: workload.Registry(),
		},
		Setup: func(s int) func(m *sm.Machine) { return banks[s].Setup() },
	})
	t.Cleanup(c.Stop)
	return c, banks
}

// quiesce blocks until every group's in-flight deliveries have settled.
func quiesce(c *Cluster) {
	for s := 0; s < c.Shards(); s++ {
		c.Group(s).Net.Quiesce()
	}
}

func debits(n, accounts int) []action.Request {
	out := make([]action.Request, n)
	for i := range out {
		out[i] = action.NewRequest("debit", action.Value(fmt.Sprintf("acct-%d", i%accounts)))
	}
	return out
}

// TestRoutedCallsLandOnOwners runs a request batch through the router and
// checks the merged report plus the per-group state: every debit landed on
// its key's ring owner and nowhere else.
func TestRoutedCallsLandOnOwners(t *testing.T) {
	c, banks := newDeployment(t, 4, 1)
	reqs := debits(16, 16)

	replies, ok := c.Router.CallAll(reqs)
	quiesce(c)

	if !ok {
		t.Fatalf("not every request was answered: %v", replies)
	}
	rep := c.Verify(workload.Registry())
	if !rep.OK() {
		t.Fatalf("merged verify failed: %+v", rep)
	}
	// Each account was debited exactly once, on its owner's bank.
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("acct-%d", i)
		owner := c.Ring().Owner(key)
		for s, b := range banks {
			want := 100
			if s == owner {
				want = 90
			}
			if got := b.Balance(key); got != want {
				t.Errorf("%s on shard %d: balance %d, want %d (owner %d)", key, s, got, want, owner)
			}
		}
	}
	if got := c.Router.Routed(); got != 16 {
		t.Errorf("router logged %d routes, want 16", got)
	}
}

// TestShardStreamsOverlapVirtualTime pins the scaling mechanism: the same
// workload takes far less virtual time on 4 groups than on 1, because the
// per-shard streams overlap their message delays on the shared clock.
func TestShardStreamsOverlapVirtualTime(t *testing.T) {
	elapsed := func(shards int) time.Duration {
		c, _ := newDeployment(t, shards, 7)
		reqs := debits(48, 48)
		clk := c.Clock()
		start := clk.Now()
		if _, ok := c.Router.CallAll(reqs); !ok {
			t.Fatalf("%d shards: unanswered requests", shards)
		}
		d := clk.Now() - start
		quiesce(c)
		return d
	}
	one, four := elapsed(1), elapsed(4)
	if four*2 >= one {
		t.Errorf("48 debits: 1 shard took %v, 4 shards took %v — want at least 2× overlap", one, four)
	}
}

// TestRouterFailoverExactlyOnce crashes a group's round-1 owner mid-call
// (environment failures stretch the execution across the crash) and
// asserts, through the merged checker and the environment audit, that the
// deployment still looks exactly-once: the group's cleaner takes over, the
// router never re-routes across groups.
func TestRouterFailoverExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, _ := newDeployment(t, 4, seed)
		// Stretch every group's debits so the crash lands mid-execution.
		for s := 0; s < c.Shards(); s++ {
			c.Group(s).Env.SetFailures("debit", 1, 6, 0)
		}
		reqs := debits(8, 8)
		clk := c.Clock()
		// Crash the owner of the group serving acct-0 while its stream is
		// in flight.
		victim := c.Ring().Owner("acct-0")
		clk.GoAfter(2*time.Millisecond, func() { c.Group(victim).CrashServer(0) })
		replies, ok := c.Router.CallAll(reqs)
		clk.Sleep(5 * time.Millisecond) // let cleaners settle
		quiesce(c)

		if !ok {
			t.Fatalf("seed %d: unanswered requests: %v", seed, replies)
		}
		rep := c.Verify(workload.Registry())
		if !rep.OK() {
			t.Fatalf("seed %d: merged verify failed after owner crash: %+v", seed, rep)
		}
		for i := 0; i < 8; i++ {
			key := action.Value(fmt.Sprintf("acct-%d", i))
			// Summed over all groups, so a mis-routed duplicate executed by
			// a non-owner is counted, not hidden.
			got := 0
			for s := 0; s < c.Shards(); s++ {
				got += c.Group(s).Env.InForceTotal("debit", key)
			}
			if got != 1 {
				t.Errorf("seed %d: %s has %d debit effects in force, want exactly 1", seed, key, got)
			}
		}
	}
}

// TestRoutingAuditCatchesBypass submits a request directly to a non-owner
// group, behind the router's back: the merged report must refuse to call
// the run exactly-once-routed.
func TestRoutingAuditCatchesBypass(t *testing.T) {
	c, _ := newDeployment(t, 2, 3)
	req := action.NewRequest("debit", "acct-0")
	owner := c.Ring().Owner("acct-0")
	rogue := (owner + 1) % 2

	c.Router.Call(req)                            // the legitimate routed call
	c.Group(rogue).Client.SubmitUntilSuccess(req) // the bypass
	quiesce(c)

	rep := c.Verify(workload.Registry())
	if rep.RoutingExact {
		t.Fatalf("routing audit accepted a bypassed submission: %+v", rep)
	}
	if rep.OK() {
		t.Error("merged report OK despite routing violation")
	}
}

// TestGroupSeedsDiffer guards the seed derivation: groups of one run and
// equal shards of different runs all see distinct streams.
func TestGroupSeedsDiffer(t *testing.T) {
	seen := make(map[int64]string)
	for seed := int64(1); seed <= 3; seed++ {
		for s := int64(0); s < 4; s++ {
			g := GroupSeed(seed, s)
			at := fmt.Sprintf("seed %d shard %d", seed, s)
			if prev, dup := seen[g]; dup {
				t.Errorf("GroupSeed collision: %s and %s both derive %d", prev, at, g)
			}
			seen[g] = at
		}
	}
}
