package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

var smokeOpts = runOpts{seed: 1, seconds: 0.05, smoke: true}

// TestManifestMatchesTables pins BENCHMARK.json to the tables in
// metrics.go and workloads.go, and the tables to the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Fatal("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics: outside the limits", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") || d.Bound > 0.25 {
			t.Errorf("metric %+v is outside the limits", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower")
	}
	if total := (4 + 22*len(workloads)) * (runSeconds + 12); total > 3420-240 {
		t.Errorf("the driver's %d runs would take about %d s, over its cap", 4+22*len(workloads), total)
	}
}

// checkResult asserts that a run printed every metric of the table once,
// with its unit, and nothing else.
func checkResult(t *testing.T, defs []metricDef, res result) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(back.Metrics), len(defs))
	}
	for _, d := range defs {
		got, ok := back.Metrics[d.Name]
		if !ok || got.Unit != d.Unit {
			t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.Name, got, ok, d.Unit)
		}
	}
}

// TestSmoke runs every workload's two run forms at 1/50 of the counts.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			m, d, res := measure(w, smokeOpts)
			checkResult(t, endToEnd, res)
			for name, v := range m.values {
				if v <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", name, v)
				}
			}
			// Equal rounds must count equal. Saturation is exempt: at this
			// commit about one overloaded round in a hundred differs even
			// at GOMAXPROCS=1 (reported as dist_mismatch, not gated).
			exact := w.Name != "saturation"
			if d.Rounds < 1 || (exact && d.Mismatch != 0) {
				t.Errorf("rounds %d, dist_mismatch %d", d.Rounds, d.Mismatch)
			}

			o := smokeOpts
			o.outDir = t.TempDir()
			_, d, res, err := traced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, perLayer, res)
			if exact && d.Mismatch != 0 {
				t.Errorf("traced passes disagree: dist_mismatch %d", d.Mismatch)
			}
			if _, err := os.Stat(o.outDir + "/trace." + w.Name + ".json"); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestUnknownMetricNameFails(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	newMetricSet(endToEnd).set("seeds_per_fortnight", 1)
}

// TestFailShare pins the arithmetic on a fabricated failing outcome and
// on a child that is killed: the lost trial attempted what the clean ones
// did on average and failed all of it.
func TestFailShare(t *testing.T) {
	failing := sample{Result: &result{Attempted: 1000, Failed: 3}}
	clean := sample{Result: &result{Attempted: 3000, Failed: 0}}
	killed := runChild([]string{"sh", "-c", "kill -9 $$"})
	if killed.Crashed == "" || killed.Result != nil {
		t.Fatalf("killed child reported %+v", killed)
	}
	attempted, failed, crashed := failShare([]sample{failing, clean, killed})
	if attempted != 6000 || failed != 2003 || crashed != 1 {
		t.Errorf("attempted %d failed %d crashed %d, want 6000 2003 1", attempted, failed, crashed)
	}
	rep := summarize(workloads[0], []sample{failing, clean, killed}, 1)
	if want := 2003.0 / 6000; math.Abs(rep.FailShare-want) > 1e-12 {
		t.Errorf("fail_share %v, want %v", rep.FailShare, want)
	}
	if attempted, failed, _ := failShare([]sample{killed}); attempted != 1 || failed != 1 {
		t.Errorf("a run of only a killed child: attempted %d failed %d, want 1 1", attempted, failed)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	tight := summary{Median: 1000, Q1: 990, Q3: 1010}
	for _, c := range []struct {
		name   string
		def    metricDef
		parent summary
		change float64
		want   string
	}{
		{"drop beyond bound and spread", rate, tight, 880, "worse"},
		{"gain beyond bound and spread", rate, tight, 1120, "better"},
		{"drop inside the bound", rate, tight, 950, "same"},
		{"parent spread wider than bound", rate, summary{Median: 1000, Q1: 900, Q3: 1100}, 700, "unresolved"},
		{"lower-is-better rise", metricDef{"allocs_per_op", "count", "lower", 0.03}, summary{Median: 100, Q1: 100, Q3: 100}, 104, "worse"},
	} {
		if got, _ := judge(c.def, c.parent, summary{Median: c.change}); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles %v %v, want 1.5 12", q1, q3)
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: bench
Type: cpu
-----------+-------------------------------------------------------
      30ms   math/rand.(*rngSource).Seed
             math/rand.NewSource
             xability/internal/simnet.(*Network).apply
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.futex
             xability/internal/vclock.(*Virtual).Sleep
             main.(*sweepRunner).round
-----------+-------------------------------------------------------
`
	got := parseTraces(out)
	want := map[string]time.Duration{"rng": 30 * time.Millisecond, "gc": 10 * time.Millisecond, "sched": 20 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("buckets %v, want %v", got, want)
	}
	for b, d := range want {
		if got[b] != d {
			t.Errorf("bucket %s: %v, want %v", b, got[b], d)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog()
	l.spans = []span{{"run", 0, 10, -1}, {"pass", 1, 4, 0}, {"pass", 5, 9, 0}, {"sweep", 5, 6, 2}}
	if got := l.selfTime(0); got != 3 {
		t.Errorf("self time of the root %v, want 3", got)
	}
	if got := l.selfTime(2); got != 3 {
		t.Errorf("self time of the second pass %v, want 3", got)
	}
}
