package simnet

import (
	"testing"
	"time"

	"xability/internal/schedule"
)

// drain receives n messages and returns their payloads with the virtual
// receive times.
func drain(t *testing.T, ep *Endpoint, n int) []Message {
	t.Helper()
	out := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		msg, ok := ep.Recv()
		if !ok {
			t.Fatalf("recv %d failed", i)
		}
		out = append(out, msg)
	}
	return out
}

// TestRecordLogsEveryDecision pins the recorder: one entry per send, in
// send order, with the link, the deadline fixed at send time, and the
// final drop/deliver verdict.
func TestRecordLogsEveryDecision(t *testing.T) {
	log := schedule.NewLog()
	n := New(Config{Seed: 7, MaxDelay: 300 * time.Microsecond, Record: log})
	defer n.Close()
	a := n.Register("a")
	b := n.Register("b")
	n.Register("c")

	a.Send("b", "m", 1)
	a.Send("c", "m", 2)
	n.Quiesce() // both deliveries settle before the link goes down
	n.Partition([]ProcessID{"a"}, []ProcessID{"c"})
	a.Send("c", "m", 3) // black-holed at send
	drain(t, b, 1)
	n.Quiesce()

	es := log.Entries()
	if len(es) != 3 {
		t.Fatalf("logged %d entries, want 3:\n%s", len(es), log)
	}
	if es[0].From != "a" || es[0].To != "b" || es[0].Type != "m" || es[0].Verdict != schedule.Delivered {
		t.Errorf("entry 0 = %v", es[0])
	}
	if es[1].Verdict != schedule.Delivered {
		t.Errorf("entry 1 = %v", es[1])
	}
	if es[2].Verdict != schedule.DroppedSend {
		t.Errorf("entry 2 = %v, want dropped@send", es[2])
	}
	for i, e := range es {
		if e.Index != i {
			t.Errorf("entry %d has index %d", i, e.Index)
		}
		if e.Deadline < e.SendAt {
			t.Errorf("entry %d deadline %v before send %v", i, e.Deadline, e.SendAt)
		}
	}
}

// TestRecordInFlightDropResolves pins the delivery-instant verdict: a
// message in the pipe when its link is severed resolves to dropped@deliver.
func TestRecordInFlightDropResolves(t *testing.T) {
	log := schedule.NewLog()
	n := New(Config{Seed: 8, MaxDelay: 2 * time.Millisecond, Record: log})
	defer n.Close()
	a := n.Register("a")
	n.Register("b")

	// Attached, so the clock cannot advance to the delivery between the
	// send and the cut.
	n.Clock().Enter()
	a.Send("b", "m", 1)
	n.Partition([]ProcessID{"a"}, []ProcessID{"b"}) // sever while in flight
	n.Quiesce()
	n.Clock().Exit()

	es := log.Entries()
	if len(es) != 1 || es[0].Verdict != schedule.DroppedDeliver {
		t.Fatalf("entries = %v, want one dropped@deliver", es)
	}
}

// TestReplayVerbatimReproducesSchedule pins the replayer's fidelity: a
// verbatim replay delivers every message at the recorded deadline.
func TestReplayVerbatimReproducesSchedule(t *testing.T) {
	run := func(cfg Config) (*schedule.Log, []time.Duration) {
		log := schedule.NewLog()
		cfg.Record = log
		n := New(cfg)
		defer n.Close()
		a := n.Register("a")
		b := n.Register("b")
		clk := n.Clock()
		clk.Enter() // hold the schedule so all sends share one instant
		for i := 0; i < 20; i++ {
			a.Send("b", "m", i)
		}
		clk.Exit()
		var at []time.Duration
		for i := 0; i < 20; i++ {
			if _, ok := b.Recv(); !ok {
				t.Fatal("recv failed")
			}
			at = append(at, clk.Now())
		}
		return log, at
	}

	base := Config{Seed: 9, MaxDelay: 500 * time.Microsecond}
	log1, at1 := run(base)

	replayed := base
	replayed.Seed = 424242 // the seed no longer matters: delays come from the log
	replayed.Replay = &schedule.Replay{Log: log1}
	log2, at2 := run(replayed)

	for i := range at1 {
		if at1[i] != at2[i] {
			t.Fatalf("delivery %d at %v under replay, %v recorded", i, at2[i], at1[i])
		}
	}
	// Re-recording the replayed run reproduces the log itself.
	es1, es2 := log1.Entries(), log2.Entries()
	if len(es1) != len(es2) {
		t.Fatalf("log lengths differ: %d vs %d", len(es1), len(es2))
	}
	for i := range es1 {
		if es1[i] != es2[i] {
			t.Errorf("entry %d: recorded %v, replayed %v", i, es1[i], es2[i])
		}
	}
}

// TestReplaySuppressAndRedelay pins the editor: a suppressed entry never
// arrives, a re-delayed entry arrives at the edited deadline, and the
// replayed run records the suppression for the next round.
func TestReplaySuppressAndRedelay(t *testing.T) {
	log := schedule.NewLog()
	n := New(Config{Seed: 10, MaxDelay: 500 * time.Microsecond, Record: log})
	a := n.Register("a")
	b := n.Register("b")
	n.Clock().Enter() // hold the schedule so all sends share one instant
	for i := 0; i < 3; i++ {
		a.Send("b", "m", i)
	}
	n.Clock().Exit()
	drain(t, b, 3)
	n.Close()

	relog := schedule.NewLog()
	edit := func(e schedule.Entry, d schedule.Decision) schedule.Decision {
		switch e.Index {
		case 1:
			d.Suppress = true
		case 2:
			d.Delay = 5 * time.Millisecond
		}
		return d
	}
	n2 := New(Config{Seed: 10, MaxDelay: 500 * time.Microsecond,
		Replay: &schedule.Replay{Log: log, Edit: edit}, Record: relog})
	defer n2.Close()
	a2 := n2.Register("a")
	b2 := n2.Register("b")
	n2.Clock().Enter()
	for i := 0; i < 3; i++ {
		a2.Send("b", "m", i)
	}
	n2.Clock().Exit()
	got := drain(t, b2, 2)
	if got[0].Payload.(int) != 0 || got[1].Payload.(int) != 2 {
		t.Errorf("payloads = %v %v, want 0 then 2 (1 suppressed)", got[0].Payload, got[1].Payload)
	}
	if now := n2.Clock().Now(); now != log.Entries()[0].SendAt+5*time.Millisecond {
		t.Errorf("last delivery at %v, want the edited 5ms deadline", now)
	}
	es := relog.Entries()
	if es[1].Verdict != schedule.Suppressed {
		t.Errorf("replayed log entry 1 = %v, want suppressed", es[1])
	}
	if es[2].Deadline-es[2].SendAt != 5*time.Millisecond {
		t.Errorf("replayed log entry 2 delay = %v, want 5ms", es[2].Deadline-es[2].SendAt)
	}
}

// TestReplayDivergenceFallsBack pins the fallback: sends beyond the
// recorded log draw from the seeded generator instead of panicking or
// stalling.
func TestReplayDivergenceFallsBack(t *testing.T) {
	log := schedule.NewLog()
	n := New(Config{Seed: 11, MaxDelay: 500 * time.Microsecond, Record: log})
	a := n.Register("a")
	b := n.Register("b")
	a.Send("b", "m", 0)
	drain(t, b, 1)
	n.Close()

	n2 := New(Config{Seed: 11, MaxDelay: 500 * time.Microsecond,
		Replay: &schedule.Replay{Log: log}})
	defer n2.Close()
	a2 := n2.Register("a")
	b2 := n2.Register("b")
	a2.Send("b", "m", 0) // matched
	a2.Send("b", "m", 1) // beyond the log: seeded fallback
	got := drain(t, b2, 2)
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
}
