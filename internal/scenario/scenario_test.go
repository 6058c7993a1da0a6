package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/simnet"
	"xability/internal/workload"
)

func TestPlanBuilderAndString(t *testing.T) {
	p := NewPlan().
		CrashAt(2*time.Millisecond, 0).
		PartitionAt(time.Millisecond, []simnet.ProcessID{"replica-0"}, []simnet.ProcessID{"replica-1"}).
		HealAt(5*time.Millisecond).
		DelayStormAt(3*time.Millisecond, time.Millisecond, 10).
		SuspectAt(time.Millisecond, "replica-0").
		UnsuspectAt(4*time.Millisecond, "replica-0")

	// DelayStormAt contributes two ops (start and end of the window).
	if got := len(p.Ops()); got != 7 {
		t.Errorf("ops = %d, want 7", got)
	}
	if got := p.Horizon(); got != 5*time.Millisecond {
		t.Errorf("horizon = %v, want 5ms", got)
	}
	s := p.String()
	for _, want := range []string{"crash replica 0", "partition {replica-0} | {replica-1}", "heal", "delay storm ×10", "suspect replica-0", "unsuspect replica-0"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
	// String sorts by firing time: the partition (1ms) precedes the crash
	// (2ms) even though it was added later.
	if crash, part := strings.Index(s, "crash"), strings.Index(s, "partition"); part > crash {
		t.Errorf("plan string not time-sorted:\n%s", s)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	if err := Register(Scenario{}); err == nil {
		t.Error("empty name registered")
	}
	if err := Register(Scenario{Name: "nice"}); err == nil {
		t.Error("duplicate name registered")
	}
}

func TestRegistryBuiltins(t *testing.T) {
	names := Names()
	byName := make(map[string]bool, len(names))
	for _, n := range names {
		byName[n] = true
	}
	for _, want := range append(T1Set(), "suspect", "failures", "sequence", "spectrum-0", "spectrum-3") {
		if !byName[want] {
			t.Errorf("builtin scenario %q not registered", want)
		}
	}
	for _, n := range T1Set() {
		if _, ok := Get(n); !ok {
			t.Errorf("T1 scenario %q not resolvable", n)
		}
	}
}

// TestGetDetachesSpecs pins that a scenario Get returns shares nothing it
// can write through with the registry: open-loop-nice and open-loop-batch
// are registered from one open-loop spec, and a caller that tunes the rate
// on its copy of one must leave both registered entries as they were; a
// write to a copy's workload spec, injected failures or requests must leave
// the registered scenario as it was too.
func TestGetDetachesSpecs(t *testing.T) {
	nice, _ := Get("open-loop-nice")
	want := nice.OpenLoop.Rate
	nice.OpenLoop.Rate = 1
	for _, name := range []string{"open-loop-nice", "open-loop-batch"} {
		sc, _ := Get(name)
		if sc.OpenLoop == nil || sc.OpenLoop.Rate != want {
			t.Errorf("%s: open-loop spec %+v after a caller's write, want rate %v", name, sc.OpenLoop, want)
		}
	}
	seq, _ := Get("sequence")
	if seq.Workload == nil {
		t.Fatal("sequence has no workload spec")
	}
	n := seq.Workload.Requests
	seq.Workload.Requests = n + 7
	if again, _ := Get("sequence"); again.Workload.Requests != n {
		t.Errorf("sequence: workload requests %d after a caller's write, want %d", again.Workload.Requests, n)
	}
	fail, _ := Get("failures")
	prob, req := fail.Failures[0].Prob, fail.Requests[0]
	fail.Failures[0].Prob = prob / 2
	fail.Requests[0].Input = "elsewhere"
	if again, _ := Get("failures"); again.Failures[0].Prob != prob || again.Requests[0] != req {
		t.Errorf("failures: failure %+v and request %+v after a caller's write, want prob %v and %+v", again.Failures[0], again.Requests[0], prob, req)
	}
}

// TestAdversarialScenariosStayExactlyOnce pins the tentpole claim for the
// new T1 rows: under a partition and under a delay storm the protocol
// still answers the client with exactly one effect in force, and the
// history verifies x-able.
func TestAdversarialScenariosStayExactlyOnce(t *testing.T) {
	for _, name := range []string{"partition", "delay-storm"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		o := Execute(sc, 101)
		if !o.XAble || !o.Replied || o.EffectsInForce != 1 {
			t.Errorf("%s: %+v, want x-able, replied, exactly one effect", name, o)
		}
		if o.Executions < 2 {
			t.Errorf("%s: executions = %d; the schedule should force concurrent execution", name, o.Executions)
		}
		if len(o.History) == 0 {
			t.Errorf("%s: empty history", name)
		}
	}
}

// TestBaselineScenariosDuplicate pins the contrast rows: the same
// declarative machinery drives the baselines into their duplication bugs.
func TestBaselineScenariosDuplicate(t *testing.T) {
	sc, _ := Get("pb-crash-failover")
	o := Execute(sc, 101)
	if o.XAble || o.EffectsInForce < 2 {
		t.Errorf("primary-backup failover should duplicate: %+v", o)
	}
	sc, _ = Get("active-nice")
	o = Execute(sc, 101)
	if o.XAble || o.EffectsInForce != 3 {
		t.Errorf("active replication should apply the effect on all 3 replicas: %+v", o)
	}
}

// TestExecuteDeterministic pins per-run replayability: equal (scenario,
// seed) pairs yield equal outcomes, including the full history.
func TestExecuteDeterministic(t *testing.T) {
	sc, _ := Get("partition")
	a := Execute(sc, 7)
	b := Execute(sc, 7)
	if len(a.History) != len(b.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("history[%d] differs: %v vs %v", i, a.History[i], b.History[i])
		}
	}
	a.History, b.History = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("outcomes differ:\n%+v\n%+v", a, b)
	}
}

// TestAuditEffectsMultiplicity pins the duplicate-replay bound: a pair is
// a duplicate when it is in force more often than the workload submitted
// it, so a request submitted twice and applied twice is clean, and the
// same pair applied a third time is not.
func TestAuditEffectsMultiplicity(t *testing.T) {
	debit := func(acct string) action.Request { return action.NewRequest("debit", action.Value(acct)) }
	reqs := []action.Request{debit("a"), debit("b"), debit("a")}
	for _, tc := range []struct {
		inForce       map[action.Value]int
		effects, dups int
	}{
		{map[action.Value]int{"a": 2, "b": 1}, 3, 0},
		{map[action.Value]int{"a": 3, "b": 1}, 4, 1},
		{map[action.Value]int{"a": 2, "b": 2}, 4, 1},
		{map[action.Value]int{"a": 1, "b": 0}, 1, 0},
	} {
		au := newEffectsAudit(reqs)
		for iv, n := range tc.inForce {
			au.add("debit", iv, n)
		}
		au.add("credit", "a", 5) // never submitted: not audited
		effects, dups := au.result(reqs)
		if effects != tc.effects || dups != tc.dups {
			t.Errorf("in force %v: effects %d dups %d, want %d and %d", tc.inForce, effects, dups, tc.effects, tc.dups)
		}
	}
	// The repeated-pair workload that tripped the old per-pair bound of 1
	// on most seeds: six requests over two accounts.
	sc, _ := Get("sequence")
	if d := Sweep(sc, Seeds(1, 32), 0); d.ReplayDuplicates != 0 || d.Effects[6] != 32 {
		t.Errorf("sequence: %d duplicate-replay runs, effects %v; want 0 and all mass on 6", d.ReplayDuplicates, d.Effects)
	}
}

// TestGroupConfigCarriesEveryField guards the one place a scenario becomes
// a replica group's configuration: from a scenario with every group-level
// field set, groupConfig must fill every field of core.ClusterConfig except
// the ones listed here with who fills them instead. A field added to
// ClusterConfig and not mapped fails here, instead of being a silent hole
// in one of the deployments (PR 12 found the sharded copy of this list
// without Durable and the WAL fields).
func TestGroupConfigCarriesEveryField(t *testing.T) {
	filledElsewhere := map[string]string{
		"Network": "deploy hands each cluster its recycled network",
	}
	sc := Scenario{
		Replicas:          5,
		Consensus:         core.ConsensusCT,
		Detector:          core.DetectorHeartbeat,
		HeartbeatInterval: time.Millisecond,
		Batch:             core.BatchConfig{Enabled: true},
		Costs:             core.CostModel{Exec: time.Microsecond},
		Durable:           true,
		WALSync:           time.Microsecond,
		WALSnapshotSync:   time.Microsecond,
		WALCompact:        8,
		Opening:           100,
	}
	cfg := reflect.ValueOf(groupConfig(sc, 7, simnet.Config{MaxDelay: time.Millisecond}, workload.NewBank(4, sc.Opening).Setup()))
	for i := 0; i < cfg.NumField(); i++ {
		name := cfg.Type().Field(i).Name
		_, elsewhere := filledElsewhere[name]
		switch zero := cfg.Field(i).IsZero(); {
		case zero && !elsewhere:
			t.Errorf("groupConfig leaves core.ClusterConfig.%s unset: map it from the scenario, or list it in filledElsewhere with who sets it", name)
		case !zero && elsewhere:
			t.Errorf("core.ClusterConfig.%s is listed in filledElsewhere but groupConfig sets it: drop the entry", name)
		}
	}
}
