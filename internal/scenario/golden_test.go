package scenario

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/outcomes.golden from the current code")

// goldenSeeds is the seed population per registered scenario.
const goldenSeeds = 4

// goldenLine renders one outcome as one readable line: every scalar field
// by name, plus a hash of the history and of the R2–R4 reports (the single
// report and the per-shard ones), so a diff of the file names the column
// that moved.
func goldenLine(o Outcome) string {
	hh := fnv.New64a()
	for _, e := range o.History {
		fmt.Fprintf(hh, "%v\n", e)
	}
	rh := fnv.New64a()
	fmt.Fprintf(rh, "%+v\n", o.Report)
	for _, r := range o.ShardReports {
		fmt.Fprintf(rh, "%+v\n", r)
	}
	l := o.Latency
	return fmt.Sprintf("%s seed=%d xable=%v replied=%v timedout=%v effects=%d execs=%d cancels=%d dups=%d"+
		" wal=%d/%v/%d/%d reqs=%d attempts=%d msgs=%d sim=%v lat=%d/%v/%v/%v/%v/%.3f"+
		" shards=%d routing=%v events=%d history=%016x reports=%016x",
		o.Scenario, o.Seed, o.XAble, o.Replied, o.TimedOut, o.EffectsInForce, o.Executions, o.Cancels, o.ReplayDuplicates,
		o.WALAppends, o.WALSyncTime, o.WALCompactions, o.WALLiveRecords, o.Requests, o.Attempts, o.Messages, o.SimTime,
		l.Count, l.P50, l.P95, l.P99, l.Max, l.MeanMicros,
		o.Shards, o.RoutingExact, len(o.History), hh.Sum64(), rh.Sum64())
}

// TestOutcomesGolden is the permanent guard on the run driver: every
// registered scenario on seeds 1–4 must reproduce the recorded outcome
// line. A refactor of the run path leaves the file untouched; a change
// that means to move a number regenerates it (go test -run OutcomesGolden
// -update) and the file's diff is the evidence of what moved.
//
// The test runs at whatever GOMAXPROCS it is given: the clock owns
// goroutine order — a spawn is an event, builders and the driver hold the
// clock, and the driver runs its world out before it lets go — so one
// goroutine runs at a time and every row is a function of (scenario,
// seed) alone. No row is left out, the overloaded open-loop ones
// included.
func TestOutcomesGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range Names() {
		sc, _ := Get(name)
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			b.WriteString(goldenLine(Execute(sc, seed)))
			b.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "outcomes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if b.String() == string(want) {
		return
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Errorf("golden has %d lines, run produced %d (scenario registered or removed? regenerate with -update)",
			len(wantLines), len(got))
	}
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, got[i], wantLines[i])
		}
	}
}
