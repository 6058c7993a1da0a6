package baseline

import (
	"sync"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/reduce"
)

// testHandler applies a transfer effect to a shared counter so duplication
// is observable both through the env audit and through application state.
type testHandler struct {
	mu    sync.Mutex
	total int
	// unique makes the handler non-deterministic: each execution returns a
	// distinct value, so duplicate executions produce diverging completion
	// events that no reduction rule can absorb.
	unique bool
	execs  int
}

func (h *testHandler) handle(req action.Request) action.Value {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.total += 10
	h.execs++
	if h.unique {
		return action.Value("ok-" + string(rune('a'+h.execs)))
	}
	return "ok"
}

func (h *testHandler) sum() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

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
