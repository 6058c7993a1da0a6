package baseline

import (
	"reflect"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/reduce"
	"xability/internal/simnet"
)

// testHandler applies a transfer effect to a shared counter so duplication
// is observable both through the env audit and through application state.
type testHandler struct {
	total int
	// unique makes the handler non-deterministic: each execution returns a
	// distinct value, so duplicate executions produce diverging completion
	// events that no reduction rule can absorb.
	unique bool
	execs  int
}

func (h *testHandler) handle(req action.Request) action.Value {
	h.total += 10
	h.execs++
	if h.unique {
		return action.Value("ok-" + string(rune('a'+h.execs)))
	}
	return "ok"
}

func (h *testHandler) sum() int { return h.total }

func transferRegistry() *action.Registry {
	reg := action.NewRegistry()
	reg.MustRegister("transfer", action.KindIdempotent) // classification is
	// irrelevant to the baselines (they use the raw path); the registry is
	// only needed by the x-ability checker below.
	return reg
}

func TestPrimaryBackupNiceRun(t *testing.T) {
	h := &testHandler{}
	c := NewCluster(ClusterConfig{Scheme: PrimaryBackup, Replicas: 3, Seed: 1, Handler: h.handle})
	defer c.Stop()
	v := c.Client.SubmitUntilSuccess(action.NewRequest("transfer", "acct"))
	if v != "ok" {
		t.Fatalf("transfer = %q", v)
	}
	c.Net.Quiesce()
	if h.sum() != 10 {
		t.Errorf("effect applied %d times’ worth, want once", h.sum()/10)
	}
}

func TestPrimaryBackupDuplicatesOnFailover(t *testing.T) {
	h := &testHandler{unique: true}
	c := NewCluster(ClusterConfig{
		Scheme:    PrimaryBackup,
		Replicas:  3,
		Seed:      2,
		Handler:   h.handle,
		SyncDelay: 5 * time.Millisecond, // widen the execute→sync window
	})
	defer c.Stop()

	// Crash the primary inside the duplication window: it has executed but
	// neither synced to the backups nor replied.
	clk := c.Clock()
	clk.Go(func() {
		clk.Sleep(2 * time.Millisecond)
		c.CrashServer(0)
		c.cdet.SetSuspected("replica-0", true)
	})

	if v := c.Client.SubmitUntilSuccess(action.NewRequest("transfer", "acct")); v == "" {
		t.Fatal("no reply")
	}
	c.Net.Quiesce()
	if h.sum() != 20 {
		t.Fatalf("expected the classic primary-backup duplication (2 applications), got %d", h.sum()/10)
	}

	// The x-ability checker catches it: the duplicated executions of a
	// non-deterministic action produced diverging completion events, which
	// rule 18 (whose pattern shares the output value between attempt and
	// success) cannot absorb. The x-ability protocol avoids this with
	// result agreement; primary-backup has none.
	reqs, _ := c.Client.Log()
	n := reduce.New(transferRegistry())
	spec, err := reduce.SpecFor(transferRegistry(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := n.XAbleTo(c.Observer.History(), []reduce.TargetSpec{spec})
	if ok {
		t.Error("duplicated history must not be x-able")
	}
}

func TestActiveReplicationDuplicatesByConstruction(t *testing.T) {
	h := &testHandler{}
	c := NewCluster(ClusterConfig{Scheme: Active, Replicas: 3, Seed: 3, Handler: h.handle})
	defer c.Stop()
	v := c.Client.SubmitUntilSuccess(action.NewRequest("transfer", "acct"))
	if v != "ok" {
		t.Fatalf("transfer = %q", v)
	}
	c.Net.Quiesce()
	if h.sum() != 30 {
		t.Fatalf("active replication should apply the effect on every replica (3), got %d", h.sum()/10)
	}
	reqs, _ := c.Client.Log()
	if got := c.Env.Applied("transfer", reqs[0].EffectiveInput()); got != 3 {
		t.Errorf("audit: applied = %d, want 3", got)
	}
}

func TestActiveReplicationOrdersRequests(t *testing.T) {
	h := &testHandler{}
	c := NewCluster(ClusterConfig{Scheme: Active, Replicas: 3, Seed: 4, Handler: h.handle})
	defer c.Stop()
	for i := 0; i < 5; i++ {
		if v := c.Client.SubmitUntilSuccess(action.NewRequest("transfer", "acct")); v != "ok" {
			t.Fatalf("transfer %d = %q", i, v)
		}
	}
	c.Net.Quiesce()
	if h.sum() != 5*3*10 {
		t.Errorf("5 requests × 3 replicas expected, total %d", h.sum()/10)
	}
}

func TestPrimaryBackupResubmissionAfterSync(t *testing.T) {
	h := &testHandler{}
	c := NewCluster(ClusterConfig{Scheme: PrimaryBackup, Replicas: 3, Seed: 5, Handler: h.handle})
	defer c.Stop()
	v := c.Client.SubmitUntilSuccess(action.NewRequest("transfer", "acct"))
	if v != "ok" {
		t.Fatal(v)
	}
	c.Net.Quiesce() // let the processed-notice reach the backups

	// Fail over without a crash: the client suspects the primary wrongly
	// and retries at a backup, which has the processed record and must not
	// re-execute.
	reqs, _ := c.Client.Log()
	c.cdet.SetSuspected("replica-0", true)
	for _, srv := range c.pbs {
		_ = srv
	}
	c.dets["replica-1"].SetSuspected("replica-0", true) // backup believes itself primary
	v2, err := c.Client.Submit(reqs[0])
	if err != nil {
		// First attempt may hit the suspected primary and fail; retry.
		v2, err = c.Client.Submit(reqs[0])
	}
	if err != nil || v2 != "ok" {
		t.Fatalf("re-submission = (%q, %v)", v2, err)
	}
	c.Net.Quiesce()
	if h.sum() != 10 {
		t.Errorf("synced re-submission must not duplicate; total = %d", h.sum()/10)
	}
}

// resetRun is what a run must reproduce on a reset baseline cluster that
// it does on a new one: the history, the replies, the handler's total and
// every count the clock and the network keep.
type resetRun struct {
	history  event.History
	replies  []action.Value
	attempts int
	total    int
	sent     int
	now      time.Duration
	events   uint64
	spawns   uint64
}

// driveReset runs two transfers on c, crashing replica 0 inside the
// primary-backup duplication window of the first, then stops c and runs
// its world out, leaving the clock Quiesced.
func driveReset(c *Cluster, h *testHandler) resetRun {
	clk := c.Clock()
	clk.GoAfter(2*time.Millisecond, func() {
		c.CrashServer(0)
		c.ClientSuspect("replica-0", true)
		c.SuspectEverywhere("replica-0", true)
	})
	c.Client.SubmitUntilSuccess(action.NewRequest("transfer", "a"))
	c.Client.SubmitUntilSuccess(action.NewRequest("transfer", "b"))
	c.Net.Quiesce()
	_, replies := c.Client.Log()
	r := resetRun{
		history:  c.Observer.History(),
		replies:  replies,
		attempts: c.Client.Attempts(),
		total:    h.sum(),
		sent:     c.Net.TotalSent(),
		now:      clk.Now(),
		events:   clk.Events(),
		spawns:   clk.Spawns(),
	}
	c.Stop()
	clk.RunOut()
	return r
}

// TestClusterResetIsNewCluster resets one used baseline cluster through
// its own shape on another seed, the other scheme on the same replicas,
// and another replication degree, then back, and holds each run on it to a
// run on a new cluster of the same config. The reset keeps the network
// while the replicas register alike, and keeps the clock throughout.
func TestClusterResetIsNewCluster(t *testing.T) {
	cfg := func(scheme Scheme, replicas int, seed int64, h *testHandler) ClusterConfig {
		return ClusterConfig{
			Scheme: scheme, Replicas: replicas, Seed: seed, Handler: h.handle,
			Net: simnet.Config{MaxDelay: time.Millisecond}, SyncDelay: 5 * time.Millisecond,
		}
	}
	used := NewCluster(cfg(PrimaryBackup, 3, 1, &testHandler{}))
	driveReset(used, &testHandler{})
	clk := used.Clock()
	for i, step := range []struct {
		scheme   Scheme
		replicas int
		seed     int64
		sameNet  bool
	}{
		{PrimaryBackup, 3, 2, true},
		{Active, 3, 3, true},
		{PrimaryBackup, 5, 4, false},
		{PrimaryBackup, 3, 5, false},
	} {
		net := used.Net
		h := &testHandler{}
		if !used.Reset(cfg(step.scheme, step.replicas, step.seed, h)) {
			t.Fatalf("step %d: Reset refused a cluster whose run was wound down", i)
		}
		if (used.Net == net) != step.sameNet || used.Clock() != clk {
			t.Errorf("step %d: kept network %v (want %v), kept clock %v", i, used.Net == net, step.sameNet, used.Clock() == clk)
		}
		got := driveReset(used, h)
		fresh := &testHandler{}
		want := driveReset(NewCluster(cfg(step.scheme, step.replicas, step.seed, fresh)), fresh)
		if !got.history.Equal(want.history) {
			t.Errorf("step %d: history on the reset cluster differs from a new one's:\nreset: %v\nnew:   %v", i, got.history, want.history)
		}
		got.history, want.history = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d: run on the reset cluster differs from a new one's:\nreset: %+v\nnew:   %+v", i, got, want)
		}
	}
}

// TestClusterResetRefusesPendingWork pins the refusal: with the new
// cluster's first events still pending on its clock, Reset reports false
// and leaves the cluster as it was.
func TestClusterResetRefusesPendingWork(t *testing.T) {
	h := &testHandler{}
	c := NewCluster(ClusterConfig{Scheme: PrimaryBackup, Replicas: 3, Seed: 6, Handler: h.handle})
	if c.Clock().Quiesced() {
		t.Fatal("a new cluster's clock has nothing pending; the test needs an event")
	}
	before := *c
	if c.Reset(ClusterConfig{Scheme: Active, Replicas: 5, Seed: 7, Handler: h.handle}) {
		t.Fatal("Reset accepted a clock with a pending event")
	}
	if c.Net != before.Net || c.Observer != before.Observer || c.Env != before.Env || c.Client != before.Client || len(c.pbs) != 3 {
		t.Fatal("a refused Reset changed the cluster")
	}
	c.Stop()
	c.Clock().RunOut()
	if !c.Reset(ClusterConfig{Scheme: Active, Replicas: 5, Seed: 7, Handler: h.handle}) {
		t.Error("Reset refused once the run was wound down")
	}
}
