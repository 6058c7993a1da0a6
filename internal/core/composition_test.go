package core

import (
	"fmt"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/sm"
	"xability/internal/verify"
)

// Composition (§1, §4, claim E6): a replicated service S2 that invokes an
// x-able replicated service S1 may treat the nested submit as one
// idempotent action of its own state machine — R1 makes it idempotent, R2
// makes it eventually successful — and S2's x-ability then follows
// locally, without reasoning about S1's internals.
//
// The tests build two independent clusters (own network, environment,
// observer per tier) and verify each tier against its own history, also
// while the inner tier is crashing and being falsely suspected.

func innerRegistry() *action.Registry {
	reg := action.NewRegistry()
	reg.MustRegister("reserve", action.KindIdempotent)
	return reg
}

func outerRegistry() *action.Registry {
	reg := action.NewRegistry()
	reg.MustRegister("order", action.KindIdempotent)
	return reg
}

// newInner builds the tier-1 (database) cluster.
func newInner(t *testing.T, seed int64) *Cluster {
	t.Helper()
	c := NewCluster(ClusterConfig{
		Replicas: 3,
		Seed:     seed,
		Registry: innerRegistry(),
		Setup: func(m *sm.Machine) {
			mustNoErr(m.HandleIdempotent("reserve", func(ctx *sm.Ctx) action.Value {
				// Non-deterministic reservation token: replicas must agree.
				return action.Value(fmt.Sprintf("rsv-%x", ctx.Rand.Int63()))
			}))
		},
	})
	t.Cleanup(c.Stop)
	return c
}

// newOuter builds the tier-2 (orders) cluster whose action invokes the
// inner cluster's submit.
func newOuter(t *testing.T, seed int64, inner *Cluster) *Cluster {
	t.Helper()
	c := NewCluster(ClusterConfig{
		Replicas: 3,
		Seed:     seed,
		Registry: outerRegistry(),
		Setup: func(m *sm.Machine) {
			mustNoErr(m.HandleIdempotent("order", func(ctx *sm.Ctx) action.Value {
				nested := inner.Client.SubmitUntilSuccess(action.NewRequest("reserve", ctx.Req.Input))
				return "ok(" + nested + ")"
			}))
		},
	})
	t.Cleanup(c.Stop)
	return c
}

func verifyTier(t *testing.T, name string, c *Cluster, reg *action.Registry) verify.Report {
	t.Helper()
	c.Net.Quiesce()
	reqs, replies := c.Client.Log()
	rep := verify.Check(verify.Run{
		Registry: reg,
		Requests: reqs,
		Replies:  replies,
		History:  c.Observer.History(),
	})
	if !rep.OK() {
		t.Errorf("%s tier verification failed: %+v\nhistory: %v", name, rep, c.Observer.History())
	}
	return rep
}

func TestCompositionNiceRun(t *testing.T) {
	inner := newInner(t, 21)
	outer := newOuter(t, 22, inner)

	v := outer.Client.SubmitUntilSuccess(action.NewRequest("order", "sku-1"))
	if v == "" {
		t.Fatal("no reply")
	}
	repInner := verifyTier(t, "inner", inner, innerRegistry())
	repOuter := verifyTier(t, "outer", outer, outerRegistry())
	if !repInner.R3Strict || !repOuter.R3Strict {
		t.Error("nice composed run should verify strictly at both tiers")
	}
}

func TestCompositionInnerCrash(t *testing.T) {
	inner := newInner(t, 23)
	outer := newOuter(t, 24, inner)

	// The inner tier's first replica crashes while slow; the outer tier's
	// nested call must still terminate (R2 of the inner tier) and both
	// tiers must stay x-able.
	inner.Env.SetFailures("reserve", 1.0, 5, 0)
	iclk := inner.Clock()
	iclk.Go(func() {
		iclk.Sleep(2 * time.Millisecond)
		inner.CrashServer(0)
		inner.ClientSuspect("replica-0", true)
	})

	if v := outer.Client.SubmitUntilSuccess(action.NewRequest("order", "sku-2")); v == "" {
		t.Fatal("empty reply")
	}
	verifyTier(t, "inner", inner, innerRegistry())
	verifyTier(t, "outer", outer, outerRegistry())
}

func TestCompositionOuterSuspicion(t *testing.T) {
	inner := newInner(t, 25)
	outer := newOuter(t, 26, inner)

	// Slow the outer action via inner-tier failures, then falsely suspect
	// the outer owner: two outer replicas execute, each performing the
	// nested call. R1 of the inner tier makes the duplicate nested submits
	// harmless; both tiers must verify.
	inner.Env.SetFailures("reserve", 1.0, 4, 0)
	oclk := outer.Clock()
	oclk.Go(func() {
		oclk.Sleep(2 * time.Millisecond)
		outer.SuspectEverywhere("replica-0", true)
	})

	v := outer.Client.SubmitUntilSuccess(action.NewRequest("order", "sku-3"))
	if v == "" {
		t.Fatal("empty reply")
	}
	verifyTier(t, "inner", inner, innerRegistry())
	verifyTier(t, "outer", outer, outerRegistry())
}

func TestCompositionSequence(t *testing.T) {
	inner := newInner(t, 27)
	outer := newOuter(t, 28, inner)

	for i := 0; i < 4; i++ {
		sku := action.Value(fmt.Sprintf("sku-%d", i))
		if v := outer.Client.SubmitUntilSuccess(action.NewRequest("order", sku)); v == "" {
			t.Fatalf("order %d failed", i)
		}
	}
	repInner := verifyTier(t, "inner", inner, innerRegistry())
	repOuter := verifyTier(t, "outer", outer, outerRegistry())
	if len(repInner.Outputs) != 4 || len(repOuter.Outputs) != 4 {
		t.Errorf("outputs: inner=%d outer=%d, want 4 each", len(repInner.Outputs), len(repOuter.Outputs))
	}
}
