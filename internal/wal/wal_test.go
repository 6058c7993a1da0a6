package wal

import (
	"testing"
	"time"

	"xability/internal/vclock"
)

func TestLogSurvivesReacquisition(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{})
	l := s.Log("replica-0")
	l.Append(Record{Kind: "est", Key: "req-1", Round: 2})
	l.Append(Record{Kind: "dec", Key: "req-1", Val: "commit"})

	// A crash tears down the process, not the disk: asking for the log by
	// name again returns the same records.
	l2 := s.Log("replica-0")
	if l2 != l {
		t.Fatalf("Log(%q) returned a different log after reacquisition", "replica-0")
	}
	var got []Record
	l2.Replay(func(r Record) { got = append(got, r) })
	if len(got) != 2 || got[0].Kind != "est" || got[1].Val != "commit" {
		t.Fatalf("replay = %+v, want the two appended records in order", got)
	}
	if s.Log("replica-1").Len() != 0 {
		t.Fatal("a different process's log is not empty")
	}
}

func TestSyncTariffChargesClock(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{SyncLatency: 50 * time.Microsecond})
	l := s.Log("replica-0")
	start := clk.Now()
	l.Append(Record{Kind: "est"})
	l.Append(Record{Kind: "est"})
	if d := clk.Now() - start; d != 100*time.Microsecond {
		t.Fatalf("two appends took %v of virtual time, want 100µs", d)
	}
	if st := s.Stats(); st.Appends != 2 || st.SyncTime != 100*time.Microsecond {
		t.Fatalf("stats = %+v, want 2 appends / 100µs synced", st)
	}
}

func TestZeroTariffIsScheduleInvisible(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{})
	l := s.Log("replica-0")
	start := clk.Now()
	for i := 0; i < 100; i++ {
		l.Append(Record{Kind: "est"})
	}
	if d := clk.Now() - start; d != 0 {
		t.Fatalf("zero-tariff appends advanced the clock by %v, want 0", d)
	}
}

// The append path must stay inside the PR-5 zero-alloc budgets: one
// amortized slice growth is all it may cost. Flat Record fields exist
// exactly so appending does not box.
func TestAppendAllocBudget(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{})
	l := s.Log("replica-0")
	// Pre-grow so the measured runs never resize the slice.
	for i := 0; i < 4096; i++ {
		l.Append(Record{Kind: "warm"})
	}
	rec := Record{Kind: "est", Key: "req-1", Space: 1, Round: 3, Aux: 2, Str: "client-1"}
	avg := testing.AllocsPerRun(1000, func() { l.Append(rec) })
	if avg > 0 {
		t.Fatalf("Append allocates %.2f objects/op, want 0", avg)
	}
}

// A crash between Append and the end of the sync wait durably drops the
// unsynced suffix: the torn record must not be visible to recovery.
func TestCrashMidSyncTearsUnsyncedTail(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{SyncLatency: 100 * time.Microsecond})
	l := s.Log("replica-0")

	// Crash at t=150µs: the first append's sync has completed, the
	// second's is mid-flight and must tear.
	crashed := -1
	clk.GoAfter(150*time.Microsecond, func() {
		crashed = s.Crash("replica-0")
	})
	l.Append(Record{Kind: "est", Key: "durable"}) // synced at t=100µs
	l.Append(Record{Kind: "est", Key: "torn"})    // sync in flight at crash
	if n := crashed; n != 1 {
		t.Fatalf("Crash tore %d records, want 1", n)
	}
	var got []Record
	l.Replay(func(r Record) { got = append(got, r) })
	if len(got) != 1 || got[0].Key != "durable" {
		t.Fatalf("post-crash replay = %+v, want only the synced record", got)
	}
	if st := s.Stats(); st.TornRecords != 1 {
		t.Fatalf("stats.TornRecords = %d, want 1", st.TornRecords)
	}
	// The new incarnation's appends land after the torn tail, durably.
	l.Append(Record{Kind: "est", Key: "after"})
	if n := l.Len(); n != 2 {
		t.Fatalf("log has %d records after restart append, want 2", n)
	}
}

// Crash exactly at the sync boundary is deterministic: the crash op and
// the sync completion are both clock events, ordered by the schedule.
func TestCrashWithNothingInFlightTearsNothing(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{SyncLatency: 50 * time.Microsecond})
	l := s.Log("replica-0")
	l.Append(Record{Kind: "est", Key: "a"})
	if n := s.Crash("replica-0"); n != 0 {
		t.Fatalf("Crash tore %d records with nothing in flight, want 0", n)
	}
	if l.Len() != 1 {
		t.Fatalf("log length = %d, want 1", l.Len())
	}
}

// lastPerKey is the test compactor: keep only the latest record per
// (Kind, Key) — the shape of every writer's real fold (records are
// last-writer-wins overwrites).
func lastPerKey(prefix []Record) []Record {
	type k struct{ kind, key string }
	last := make(map[k]int, len(prefix))
	for i, r := range prefix {
		if r.Kind == KindSnapshot {
			continue
		}
		last[k{r.Kind, r.Key}] = i
	}
	out := make([]Record, 0, len(last))
	for i, r := range prefix {
		if r.Kind == KindSnapshot {
			continue
		}
		if last[k{r.Kind, r.Key}] == i {
			out = append(out, r)
		}
	}
	return out
}

func TestCompactionFoldsPrefixAndKeepsSuffix(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{CompactThreshold: 8})
	l := s.Log("replica-0")
	l.SetCompactor(lastPerKey)
	// 20 overwrites of one key: auto-compaction should keep the log from
	// reaching 20 records.
	for i := 0; i < 20; i++ {
		l.Append(Record{Kind: "est", Key: "k", Aux: int32(i)})
	}
	if n := l.Len(); n >= 20 {
		t.Fatalf("log grew to %d records, want compaction to bound it", n)
	}
	// Replay must see the latest overwrite regardless of folding.
	var lastAux int32 = -1
	l.Replay(func(r Record) {
		if r.Kind == "est" && r.Key == "k" {
			lastAux = r.Aux
		}
	})
	if lastAux != 19 {
		t.Fatalf("replayed latest Aux = %d, want 19", lastAux)
	}
	st := s.Stats()
	if st.Compactions == 0 || st.CompactedRecords == 0 {
		t.Fatalf("stats = %+v, want compactions recorded", st)
	}
	if st.LiveRecords != l.Len() {
		t.Fatalf("stats.LiveRecords = %d, want %d", st.LiveRecords, l.Len())
	}
}

// The snapshot write charges its size tariff on the clock, and a crash
// during that write discards the torn snapshot: the old prefix stands.
func TestCrashDuringSnapshotDiscardsIt(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{
		SyncLatency:  10 * time.Microsecond,
		SnapshotSync: 100 * time.Microsecond,
	})
	l := s.Log("replica-0")
	l.SetCompactor(lastPerKey)
	// Crash at t=100µs, inside the snapshot write.
	clk.GoAfter(100*time.Microsecond, func() {
		s.Crash("replica-0")
	})
	// 6 appends at 10µs each end at t=60µs; Compact then writes a
	// 1-record snapshot, a (1+1)×100µs = 200µs write.
	for i := 0; i < 6; i++ {
		l.Append(Record{Kind: "est", Key: "k", Aux: int32(i)})
	}
	l.Compact()
	if got := l.Installs(); got != 0 {
		t.Fatalf("snapshot installed despite mid-write crash (installs=%d)", got)
	}
	if n := l.Len(); n != 6 {
		t.Fatalf("log has %d records, want the uncompacted 6", n)
	}
	if st := s.Stats(); st.Compactions != 0 {
		t.Fatalf("stats.Compactions = %d, want 0", st.Compactions)
	}
}

// Zero sync latency keeps the whole plane schedule-invisible even with
// compaction on: the derived snapshot tariff is zero too.
func TestZeroTariffCompactionIsScheduleInvisible(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{CompactThreshold: 4})
	l := s.Log("replica-0")
	l.SetCompactor(lastPerKey)
	start := clk.Now()
	for i := 0; i < 64; i++ {
		l.Append(Record{Kind: "est", Key: "k", Aux: int32(i)})
	}
	if d := clk.Now() - start; d != 0 {
		t.Fatalf("zero-tariff compaction advanced the clock by %v, want 0", d)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("no compaction ran")
	}
}

// thenAt is the caller's Runner in the AppendThen tests: it notes when it
// ran and whether the append's record was torn.
type thenAt struct {
	clk  *vclock.Virtual
	k    *Sync
	ran  int
	at   time.Duration
	torn bool
}

func (c *thenAt) Run() { c.ran, c.at, c.torn = c.ran+1, c.clk.Now(), c.k.Torn() }

// With a tariff the post-sync work is a scheduled continuation: the caller's
// Runner runs at now+d, on the pump, with the record durable.
func TestAppendThenRunsAtSyncCompletion(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{SyncLatency: 50 * time.Microsecond})
	l := s.Log("replica-0")
	var k Sync
	then := &thenAt{clk: clk, k: &k}
	clk.Sleep(10 * time.Microsecond)
	l.AppendThen(Record{Kind: "est", Key: "a"}, &k, then)
	if then.ran != 0 {
		t.Fatal("the continuation ran before the sync tariff was paid")
	}
	clk.RunOut()
	if then.ran != 1 || then.at != 60*time.Microsecond || then.torn {
		t.Fatalf("continuation ran %d times at %v torn=%v, want once at 60µs, not torn", then.ran, then.at, then.torn)
	}
	if n := s.Crash("replica-0"); n != 0 || l.Len() != 1 {
		t.Fatalf("after the continuation a crash tore %d of %d records, want the record durable", n, l.Len())
	}
	if st := s.Stats(); st.Appends != 1 || st.SyncTime != 50*time.Microsecond {
		t.Fatalf("stats = %+v, want 1 append / 50µs synced", st)
	}
}

// A crash during the sync tears the record: the continuation still runs
// the caller's Runner, which reads Torn, and compaction is skipped.
func TestAppendThenCrashDuringSyncReportsTorn(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{SyncLatency: 100 * time.Microsecond, CompactThreshold: 1})
	l := s.Log("replica-0")
	l.SetCompactor(lastPerKey)
	var k Sync
	then := &thenAt{clk: clk, k: &k}
	for i := 0; i < 3; i++ {
		l.Append(Record{Kind: "est", Key: "k", Aux: int32(i)}) // compacts as it goes
	}
	installs, start := l.Installs(), clk.Now()
	l.AppendThen(Record{Kind: "est", Key: "k", Aux: 3}, &k, then)
	clk.AfterRunner(50*time.Microsecond, runnerFunc(func() { s.Crash("replica-0") }))
	clk.RunOut()
	if then.ran != 1 || then.at != start+100*time.Microsecond || !then.torn {
		t.Fatalf("continuation ran %d times at %v torn=%v, want once at %v, torn", then.ran, then.at, then.torn, start+100*time.Microsecond)
	}
	if got := l.Installs(); got != installs {
		t.Fatalf("installs went from %d to %d: a torn append compacted", installs, got)
	}
	var last int32 = -1
	l.Replay(func(r Record) {
		if r.Kind == "est" {
			last = r.Aux
		}
	})
	if last != 2 {
		t.Fatalf("replayed latest Aux = %d, want 2: the torn record is gone", last)
	}
}

// Compaction's snapshot tariff is chained behind the sync tariff: the
// caller's Runner runs once the snapshot is installed.
func TestAppendThenChainsSnapshotTariff(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{
		SyncLatency:      10 * time.Microsecond,
		SnapshotSync:     100 * time.Microsecond,
		CompactThreshold: 4,
	})
	l := s.Log("replica-0")
	l.SetCompactor(lastPerKey)
	var k Sync
	then := &thenAt{clk: clk, k: &k}
	for i := 0; i < 3; i++ {
		l.Append(Record{Kind: "est", Key: "k", Aux: int32(i)}) // t = 30µs
	}
	// The fourth synced record reaches the threshold: the sync ends at
	// 40µs, and the 1-record snapshot costs (1+1)×100µs more.
	l.AppendThen(Record{Kind: "est", Key: "k", Aux: 3}, &k, then)
	clk.RunOut()
	if then.ran != 1 || then.at != 240*time.Microsecond || then.torn {
		t.Fatalf("continuation ran %d times at %v torn=%v, want once at 240µs, not torn", then.ran, then.at, then.torn)
	}
	if l.Installs() != 1 || l.Len() != 2 {
		t.Fatalf("installs=%d len=%d, want the snapshot installed (marker + 1 record)", l.Installs(), l.Len())
	}
	if st := s.Stats(); st.SyncTime != 240*time.Microsecond {
		t.Fatalf("stats.SyncTime = %v, want 240µs (4 syncs + the snapshot)", st.SyncTime)
	}
}

// At zero tariff the continuation runs inline — the caller's Runner before
// AppendThen returns, no event scheduled — and allocates nothing.
func TestAppendThenZeroTariffRunsInline(t *testing.T) {
	clk := vclock.NewVirtual()
	defer clk.Stop()
	s := NewStore(clk, Config{})
	l := s.Log("replica-0")
	var k Sync
	then := &thenAt{clk: clk, k: &k}
	for i := 0; i < 4096; i++ {
		l.Append(Record{Kind: "warm"}) // pre-grow: the measured runs never resize
	}
	rec := Record{Kind: "est", Key: "req-1", Space: 1, Round: 3, Aux: 2, Str: "client-1"}
	l.AppendThen(rec, &k, then)
	if then.ran != 1 {
		t.Fatalf("continuation ran %d times before AppendThen returned, want 1", then.ran)
	}
	if ev := clk.Events(); ev != 0 {
		t.Fatalf("zero-tariff AppendThen scheduled %d events, want 0", ev)
	}
	avg := testing.AllocsPerRun(1000, func() { l.AppendThen(rec, &k, then) })
	if avg > 0 {
		t.Fatalf("AppendThen allocates %.2f objects/op, want 0", avg)
	}
}

// runnerFunc adapts a func to vclock.Runner for tests.
type runnerFunc func()

func (f runnerFunc) Run() { f() }
