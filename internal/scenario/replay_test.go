package scenario

import (
	"reflect"
	"testing"
	"time"

	"xability/internal/schedule"
)

// TestRecordedReplayByteIdentical is the recorder's regression contract: a
// run replayed verbatim from its own log is byte-identical to the recorded
// run — same history, same effects, same reply log, same verdict, and the
// re-recorded schedule is the log itself. This is what makes a (scenario,
// seed, log) triple a complete, portable reproduction of a run.
func TestRecordedReplayByteIdentical(t *testing.T) {
	for _, name := range []string{"crash-failover", "partition", "pb-crash-failover"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		recLog := schedule.NewLog()
		rec := Run(sc, 17, RunOptions{Record: recLog})

		repLog := schedule.NewLog()
		rep := Run(sc, 17, RunOptions{Record: repLog, Replay: &schedule.Replay{Log: recLog}})

		if len(rec.History) != len(rep.History) {
			t.Fatalf("%s: history lengths differ: %d vs %d", name, len(rec.History), len(rep.History))
		}
		for i := range rec.History {
			if rec.History[i] != rep.History[i] {
				t.Fatalf("%s: history[%d] differs: %v vs %v", name, i, rec.History[i], rep.History[i])
			}
		}
		a, b := rec, rep
		a.History, b.History = nil, nil
		a.Schedule, b.Schedule = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: outcomes differ under verbatim replay:\nrecorded: %+v\nreplayed: %+v", name, a, b)
		}
		re, rp := recLog.Entries(), repLog.Entries()
		if len(re) != len(rp) {
			t.Fatalf("%s: schedule lengths differ: %d vs %d", name, len(re), len(rp))
		}
		for i := range re {
			if re[i] != rp[i] {
				t.Errorf("%s: schedule[%d] differs: %v vs %v", name, i, re[i], rp[i])
			}
		}
	}
}

// TestRecordedScheduleDeterminism pins the recorder itself: two recordings
// of the same (scenario, seed) produce identical logs.
func TestRecordedScheduleDeterminism(t *testing.T) {
	sc, _ := Get("delay-storm")
	l1, l2 := schedule.NewLog(), schedule.NewLog()
	Run(sc, 23, RunOptions{Record: l1})
	Run(sc, 23, RunOptions{Record: l2})
	e1, e2 := l1.Entries(), l2.Entries()
	if len(e1) != len(e2) {
		t.Fatalf("log lengths differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

// TestDeadlineWatchdog pins the run cap: a scenario whose client can never
// be answered (every reply suppressed) terminates at the deadline with
// TimedOut set instead of spinning the virtual clock forever.
func TestDeadlineWatchdog(t *testing.T) {
	sc, _ := Get("nice")
	recLog := schedule.NewLog()
	base := Run(sc, 5, RunOptions{Record: recLog})
	if !base.Replied || base.TimedOut {
		t.Fatalf("baseline should reply in time: %+v", base)
	}

	// Suppress every result delivery to the client: no reply can arrive.
	drop := make(map[int]bool)
	for _, e := range recLog.Entries() {
		if e.To == "client" {
			drop[e.Index] = true
		}
	}
	if len(drop) == 0 {
		t.Fatal("no client-bound deliveries recorded")
	}
	sc.Deadline = 50 * time.Millisecond
	o := Run(sc, 5, RunOptions{Replay: &schedule.Replay{Log: recLog, Edit: schedule.SuppressSet(drop)}})
	if !o.TimedOut {
		t.Errorf("watchdog did not fire: %+v", o)
	}
	if o.Replied {
		t.Errorf("starved client still replied: %+v", o)
	}
}
