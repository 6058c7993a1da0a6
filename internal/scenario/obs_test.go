package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xability/internal/obs"
)

// TestObservedRunCounters sanity-checks the instrumented layers end to
// end: a nice closed-loop run must account for its submits, replies,
// consensus proposals, and per-request latencies.
func TestObservedRunCounters(t *testing.T) {
	sc, ok := Get("crash-failover")
	if !ok {
		t.Fatal("crash-failover not registered")
	}
	run := &obs.Run{Metrics: obs.NewMetrics(), Trace: obs.NewTrace(0)}
	o := ExecuteObserved(sc, 1, run)
	if !o.XAble || !o.Replied {
		t.Fatalf("crash-failover seed 1 regressed: %+v", o)
	}
	s := o.Obs
	if s == nil {
		t.Fatal("observed run carries no snapshot")
	}
	if s.Counters[obs.ReqSubmitted] == 0 || s.Counters[obs.ReqReplied] == 0 {
		t.Errorf("request lifecycle uncounted: submitted=%d replied=%d",
			s.Counters[obs.ReqSubmitted], s.Counters[obs.ReqReplied])
	}
	if s.Counters[obs.MsgSubmit] == 0 {
		t.Errorf("submit messages uncounted: %d", s.Counters[obs.MsgSubmit])
	}
	if s.Counters[obs.ConsProposals] == 0 {
		t.Errorf("consensus proposals uncounted (local substrate still proposes): %d",
			s.Counters[obs.ConsProposals])
	}
	if s.LatCount != s.Counters[obs.ReqReplied] {
		t.Errorf("latency observations (%d) != replies (%d)", s.LatCount, s.Counters[obs.ReqReplied])
	}
	if s.LatP50NS <= 0 || s.LatP99NS < s.LatP50NS {
		t.Errorf("latency quantiles implausible: p50=%d p99=%d", s.LatP50NS, s.LatP99NS)
	}
	if s.Coverage == 0 {
		t.Error("coverage fingerprint never folded a delivery")
	}
	if run.Trace.Len() == 0 {
		t.Error("trace recorded no spans")
	}

	// The CT substrate's counters only move on the message-passing
	// consensus; the partition scenario runs over it.
	ct, ok := Get("partition")
	if !ok {
		t.Fatal("partition not registered")
	}
	o = ExecuteObserved(ct, 1, &obs.Run{Metrics: obs.NewMetrics()})
	if !o.XAble || !o.Replied {
		t.Fatalf("partition seed 1 regressed: %+v", o)
	}
	s = o.Obs
	if s.Counters[obs.MsgCons] == 0 {
		t.Errorf("CT consensus messages uncounted: %d", s.Counters[obs.MsgCons])
	}
	if s.Counters[obs.ConsRounds] == 0 || s.Counters[obs.ConsDecisions] == 0 {
		t.Errorf("CT rounds/decisions uncounted: rounds=%d decisions=%d",
			s.Counters[obs.ConsRounds], s.Counters[obs.ConsDecisions])
	}
	if s.Counters[obs.FDSuspicions] == 0 {
		t.Errorf("FD suspicions uncounted: %d", s.Counters[obs.FDSuspicions])
	}
}

// TestObservedRunDeterministic pins the plane's two core guarantees at
// once: equal (scenario, seed) observed runs produce byte-equal trace
// exports and deeply equal snapshots, and observation does not perturb the
// schedule — the observed run's verdict fields match the unobserved twin's.
func TestObservedRunDeterministic(t *testing.T) {
	sc, _ := Get("crash-failover")
	export := func() ([]byte, *obs.Snapshot, Outcome) {
		run := &obs.Run{Metrics: obs.NewMetrics(), Trace: obs.NewTrace(0)}
		o := ExecuteObserved(sc, 7, run)
		var buf bytes.Buffer
		if err := run.Trace.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes(), o.Obs, o
	}
	j1, s1, o1 := export()
	j2, s2, o2 := export()
	if !bytes.Equal(j1, j2) {
		t.Error("trace JSON differs across equal-seed runs")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("snapshots differ across equal-seed runs:\n%+v\nvs\n%+v", s1, s2)
	}
	plain := Execute(sc, 7)
	for _, cmp := range []struct {
		name             string
		a, b             Outcome
		wantEqualHistory bool
	}{{"observed twins", o1, o2, false}, {"observed vs plain", o1, plain, false}} {
		a, b := cmp.a, cmp.b
		if a.XAble != b.XAble || a.Replied != b.Replied || a.Messages != b.Messages ||
			a.Attempts != b.Attempts || a.SimTime != b.SimTime || a.EffectsInForce != b.EffectsInForce {
			t.Errorf("%s: verdicts diverge:\n%+v\nvs\n%+v", cmp.name, a, b)
		}
	}
}

// TestObservedOpenLoopAndSharded exercises the remaining execute paths:
// the station's lifecycle taps and the sharded runtime's shared registry
// must both produce populated, deterministic snapshots.
func TestObservedOpenLoopAndSharded(t *testing.T) {
	for _, name := range []string{"open-loop-nice", "shard-nice"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		snap := func() *obs.Snapshot {
			run := &obs.Run{Metrics: obs.NewMetrics()}
			o := ExecuteObserved(sc, 3, run)
			if !o.XAble {
				t.Fatalf("%s seed 3 regressed: %+v", name, o)
			}
			return o.Obs
		}
		s1, s2 := snap(), snap()
		if s1.Counters[obs.ReqReplied] == 0 {
			t.Errorf("%s: no replies counted", name)
		}
		if s1.Coverage == 0 {
			t.Errorf("%s: no coverage folded", name)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: snapshots differ across equal-seed runs:\n%+v\nvs\n%+v", name, s1, s2)
		}
	}
}

// TestSweepMetricsRollup pins the sweep integration: Metrics arms the
// plane per worker, the snapshots fold in seed order, and the rollup is
// deterministic across worker counts (the reused-registry path must be
// invisible, like the recycled networks).
func TestSweepMetricsRollup(t *testing.T) {
	sc, _ := Get("crash-failover")
	seeds := Seeds(100, 32)
	serial := SweepWithOptions(sc, seeds, SweepOptions{Workers: 1, Metrics: true})
	parallel := SweepWithOptions(sc, seeds, SweepOptions{Workers: 8, Metrics: true})
	if serial.Rollup == nil || parallel.Rollup == nil {
		t.Fatal("Metrics sweep carries no rollup")
	}
	if !reflect.DeepEqual(serial.Rollup, parallel.Rollup) {
		t.Errorf("rollup differs across worker counts:\n%+v\nvs\n%+v", serial.Rollup, parallel.Rollup)
	}
	if serial.Rollup.Runs != len(seeds) {
		t.Errorf("rollup folded %d runs, want %d", serial.Rollup.Runs, len(seeds))
	}
	if serial.Rollup.Classes == 0 {
		t.Error("no interleaving classes observed")
	}
	if s := serial.String(); !strings.Contains(s, "interleaving classes") {
		t.Errorf("rendered distribution misses coverage:\n%s", s)
	}
	// Off by default: a plain sweep must carry no rollup.
	if d := Sweep(sc, Seeds(100, 4), 0); d.Rollup != nil {
		t.Error("unarmed sweep grew a rollup")
	}
}

// TestSweepTraceFailing pins the failing-seed re-run: a sweep over the
// planted primary-backup bug attaches valid, bounded trace exports for its
// failing seeds.
func TestSweepTraceFailing(t *testing.T) {
	sc, _ := Get("pb-crash-failover")
	d := SweepWithOptions(sc, Seeds(1, 6), SweepOptions{TraceFailing: true})
	if len(d.Failing) != 6 {
		t.Fatalf("failing = %v, want all 6", d.Failing)
	}
	if len(d.Traces) != maxCounterexamples {
		t.Fatalf("traces = %d, want %d (bounded)", len(d.Traces), maxCounterexamples)
	}
	for seed, j := range d.Traces {
		if !bytes.HasPrefix(j, []byte(`{"traceEvents":[`)) {
			t.Errorf("seed %d: export is not a trace-event JSON object: %.40s", seed, j)
		}
	}
}

// TestSweepProgress pins the progress callback: it observes every
// completed run and ends at (total, total).
func TestSweepProgress(t *testing.T) {
	sc, _ := Get("nice")
	var mu sync.Mutex
	calls, last := 0, 0
	SweepWithOptions(sc, Seeds(1, 10), SweepOptions{
		Workers: 4,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done > last {
				last = done
			}
			if total != 10 {
				t.Errorf("total = %d, want 10", total)
			}
		},
	})
	if calls != 10 || last != 10 {
		t.Errorf("progress calls = %d (last %d), want 10 reaching 10", calls, last)
	}
}
