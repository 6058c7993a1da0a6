package core

import (
	"reflect"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/wal"
)

// resetRun is what a run must reproduce on a reset cluster that it does on
// a new one: the history, the replies and every count the clock and the
// network keep.
type resetRun struct {
	history  event.History
	replies  []action.Value
	attempts int
	sent     int
	now      time.Duration
	events   uint64
	spawns   uint64
	wal      wal.Stats
}

// bankConfig completes cfg with the test bank: a fresh world per call, so
// a reset cluster and a new one start from equal balances.
func bankConfig(cfg ClusterConfig) ClusterConfig {
	cfg.Registry = bankRegistry()
	cfg.Setup = bankSetup(&bankWorld{balance: map[string]int{"acct": 100}})
	cfg.Net.MaxDelay = 200 * time.Microsecond
	return cfg
}

// driveReset runs three requests on c with the first one's debit stretched
// by injected failures, crashes replica 0 mid-run and, on a durable
// cluster, restarts it; then it stops c and runs its world out, leaving the
// clock Quiesced.
func driveReset(c *Cluster) resetRun {
	clk := c.Clock()
	c.Env.SetFailures("debit", 1.0, 4, 0)
	clk.GoAfter(2*time.Millisecond, func() {
		c.CrashServer(0)
		if c.Durable() {
			clk.Sleep(3 * time.Millisecond)
			c.RestartServer(0)
		}
	})
	c.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	c.Client.SubmitUntilSuccess(action.NewRequest("read", "acct"))
	c.Client.SubmitUntilSuccess(action.NewRequest("token", "t"))
	_, replies := c.Client.Log()
	r := resetRun{
		history:  c.Observer.History(),
		replies:  replies,
		attempts: c.Client.Attempts(),
		sent:     c.Net.TotalSent(),
		now:      clk.Now(),
		events:   clk.Events(),
		spawns:   clk.Spawns(),
		wal:      c.WALStats(),
	}
	c.Stop()
	clk.RunOut()
	return r
}

// TestClusterResetIsNewCluster resets one used cluster, first to its own
// shape on another seed and then through shapes that share no layer with
// the one before — 3 → 5 replicas, scripted → heartbeat detectors, local
// → CT consensus, in-memory → durable and per-request → batched, then back
// — and holds each run on it to a run on a new cluster of the same config:
// a reset must leave nothing of the previous run or shape behind. The
// first run leaves state a reset must drop in the tables it carries: a
// failure plan still armed, a standing suspicion, and a stashed reply and
// an await under the ID the next run's first request takes.
func TestClusterResetIsNewCluster(t *testing.T) {
	small := ClusterConfig{Replicas: 3, Seed: 21}
	again := ClusterConfig{Replicas: 3, Seed: 23}
	big := ClusterConfig{
		Replicas:          5,
		Seed:              22,
		Detector:          DetectorHeartbeat,
		HeartbeatInterval: time.Millisecond,
		Consensus:         ConsensusCT,
		Durable:           true,
		Batch:             BatchConfig{Enabled: true},
	}
	used := NewCluster(bankConfig(small))
	used.Env.SetFailures("read", 0.5, 100, 0)
	driveReset(used)
	used.SuspectEverywhere("replica-1", true)
	used.ClientSuspect("replica-0", true)
	used.Client.stash["client-1"] = "stale"
	used.Client.awaiting["client-1"] = true
	for i, cfg := range []ClusterConfig{again, big, small, big} {
		if !used.Reset(bankConfig(cfg)) {
			t.Fatalf("step %d: Reset refused a cluster whose run was wound down", i)
		}
		got := driveReset(used)
		want := driveReset(NewCluster(bankConfig(cfg)))
		if !got.history.Equal(want.history) {
			t.Errorf("step %d: history on the reset cluster differs from a new one's:\nreset: %v\nnew:   %v", i, got.history, want.history)
		}
		got.history, want.history = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d: run on the reset cluster differs from a new one's:\nreset: %+v\nnew:   %+v", i, got, want)
		}
		if len(used.Servers) != cfg.Replicas {
			t.Errorf("step %d: reset cluster has %d servers, want %d", i, len(used.Servers), cfg.Replicas)
		}
		if cfg.Durable && got.wal.Appends == 0 {
			t.Errorf("step %d: the durable shape wrote nothing to its logs", i)
		}
	}
}

// TestClusterResetKeepsNetworkAndClock pins what a cluster that owns its
// clock recycles: a Reset to the same shape — the endpoints its previous
// config registered, in the same order — keeps its network and its clock,
// rewound to time zero, and the run on them is a new cluster's, down to
// the clock's counts. A Reset to another shape keeps the clock and builds
// the network new on it.
func TestClusterResetKeepsNetworkAndClock(t *testing.T) {
	for _, cfg := range []ClusterConfig{
		{Replicas: 3, Seed: 41},
		{Replicas: 3, Seed: 42, Detector: DetectorHeartbeat, HeartbeatInterval: time.Millisecond, Consensus: ConsensusCT, Durable: true},
	} {
		c := NewCluster(bankConfig(cfg))
		driveReset(c)
		net, clk := c.Net, c.Clock()
		for seed := cfg.Seed; seed < cfg.Seed+3; seed++ {
			next := cfg
			next.Seed = seed
			if !c.Reset(bankConfig(next)) {
				t.Fatalf("seed %d: Reset refused a cluster whose run was wound down", seed)
			}
			if c.Net != net || c.Clock() != clk {
				t.Fatalf("seed %d: a same-shape Reset built a new network or clock", seed)
			}
			if now, events := clk.Now(), clk.Events(); now != 0 || events == 0 {
				t.Errorf("seed %d: the kept clock reads %v and %d events after the build, want time zero and the build's events", seed, now, events)
			}
			got := driveReset(c)
			want := driveReset(NewCluster(bankConfig(next)))
			if !got.history.Equal(want.history) {
				t.Errorf("seed %d: history on the kept network differs from a new cluster's:\nreset: %v\nnew:   %v", seed, got.history, want.history)
			}
			got.history, want.history = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: run on the kept network differs from a new cluster's:\nreset: %+v\nnew:   %+v", seed, got, want)
			}
		}
	}
	c := NewCluster(bankConfig(ClusterConfig{Replicas: 3, Seed: 43}))
	driveReset(c)
	net, clk := c.Net, c.Clock()
	if !c.Reset(bankConfig(ClusterConfig{Replicas: 5, Seed: 43})) {
		t.Fatal("Reset refused a cluster whose run was wound down")
	}
	if c.Net == net || c.Clock() != clk {
		t.Error("a Reset to five replicas kept the three-replica network, or dropped the clock")
	}
}

// TestClusterResetRefusesPendingWork pins the refusal: with an event still
// pending on its clock — a new cluster's first runs and cleaner ticks — a
// Reset reports false and leaves the cluster as it was, down to the run it
// then serves.
func TestClusterResetRefusesPendingWork(t *testing.T) {
	base := ClusterConfig{Replicas: 3, Seed: 31}
	c := NewCluster(bankConfig(base))
	if c.Clock().Quiesced() {
		t.Fatal("a new cluster's clock has nothing pending; the test needs an event")
	}
	before := *c
	servers := append([]*Server(nil), c.Servers...)
	if c.Reset(bankConfig(ClusterConfig{Replicas: 5, Seed: 32, Consensus: ConsensusCT})) {
		t.Fatal("Reset accepted a clock with a pending event")
	}
	if c.Net != before.Net || c.Observer != before.Observer || c.Env != before.Env || c.Client != before.Client ||
		c.localCons != before.localCons || c.nodes != nil || c.cfg.Seed != base.Seed || !reflect.DeepEqual(c.Servers, servers) {
		t.Fatal("a refused Reset changed the cluster")
	}
	got := driveReset(c)
	want := driveReset(NewCluster(bankConfig(base)))
	if !got.history.Equal(want.history) || got.sent != want.sent || got.now != want.now || got.events != want.events {
		t.Errorf("the cluster a Reset refused runs differently from one never asked: %+v vs %+v", got, want)
	}
	if !c.Reset(bankConfig(base)) {
		t.Error("Reset refused once the run was wound down")
	}
}
