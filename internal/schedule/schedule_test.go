package schedule

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func entry(from, to, typ string, send, deadline time.Duration) Entry {
	return Entry{From: from, To: to, Type: typ, SendAt: send, Deadline: deadline}
}

func TestLogAppendResolve(t *testing.T) {
	l := NewLog()
	i := l.Append(entry("a", "b", "m", 0, time.Millisecond))
	j := l.Append(entry("b", "a", "m", time.Millisecond, 3*time.Millisecond))
	if i != 0 || j != 1 || l.Len() != 2 {
		t.Fatalf("indices %d %d, len %d", i, j, l.Len())
	}
	l.Resolve(i, Delivered)
	l.Resolve(j, DroppedDeliver)
	es := l.Entries()
	if es[0].Verdict != Delivered || es[1].Verdict != DroppedDeliver {
		t.Errorf("verdicts = %v %v", es[0].Verdict, es[1].Verdict)
	}
	if es[1].Delay() != 2*time.Millisecond {
		t.Errorf("delay = %v, want 2ms", es[1].Delay())
	}
	if l.DeliveredCount() != 1 {
		t.Errorf("delivered = %d, want 1", l.DeliveredCount())
	}
	if s := l.String(); !strings.Contains(s, "dropped@deliver") || !strings.Contains(s, "a → b") {
		t.Errorf("render:\n%s", s)
	}
}

// TestCursorStreamMatching pins the per-stream alignment: sends match the
// k-th logged entry of their own (from, to, type) stream, so divergence on
// one stream does not shift every other stream.
func TestCursorStreamMatching(t *testing.T) {
	l := NewLog()
	l.Append(entry("a", "b", "x", 0, 1*time.Millisecond))
	l.Append(entry("a", "c", "x", 0, 2*time.Millisecond))
	l.Append(entry("a", "b", "x", 0, 3*time.Millisecond))
	c := NewCursor(&Replay{Log: l}, 0)

	if d, ok := c.Next("a", "b", "x"); !ok || d.Delay != 1*time.Millisecond {
		t.Errorf("a→b #1: %v %v", d, ok)
	}
	if d, ok := c.Next("a", "b", "x"); !ok || d.Delay != 3*time.Millisecond {
		t.Errorf("a→b #2: %v %v", d, ok)
	}
	if _, ok := c.Next("a", "b", "x"); ok {
		t.Error("a→b stream should be exhausted")
	}
	// The a→c stream is untouched by a→b's consumption.
	if d, ok := c.Next("a", "c", "x"); !ok || d.Delay != 2*time.Millisecond {
		t.Errorf("a→c: %v %v", d, ok)
	}
	// Unrecorded streams report no match (fallback to the seeded draw).
	if _, ok := c.Next("b", "a", "x"); ok {
		t.Error("unrecorded stream matched")
	}
}

func TestNilCursorAndNilSpec(t *testing.T) {
	if c := NewCursor(nil, 0); c != nil {
		t.Error("NewCursor(nil, 0) != nil")
	}
	var c *Cursor
	if _, ok := c.Next("a", "b", "x"); ok {
		t.Error("nil cursor matched")
	}
	if c := NewCursor(&Replay{}, 0); c != nil {
		t.Error("NewCursor with nil log != nil")
	}
}

// TestVerbatimHonorsRecordedSuppressions pins the nil-Edit contract: a
// log that contains Suppressed entries round-trips through an edit-free
// replay with those entries still suppressed — which is what makes
// MinTrace.Log a self-contained reproduction.
func TestVerbatimHonorsRecordedSuppressions(t *testing.T) {
	l := NewLog()
	l.Append(entry("a", "b", "x", 0, 1*time.Millisecond))
	i := l.Append(entry("a", "b", "x", 0, 2*time.Millisecond))
	l.Resolve(i, Suppressed)
	c := NewCursor(&Replay{Log: l}, 0)
	if d, _ := c.Next("a", "b", "x"); d.Suppress {
		t.Error("delivered entry suppressed under verbatim replay")
	}
	if d, _ := c.Next("a", "b", "x"); !d.Suppress {
		t.Error("recorded suppression lost under verbatim replay")
	}
}

// TestSuppressSet pins the shrinker's edit: new drops are suppressed,
// prior-round suppressions recorded in the log stay suppressed, everything
// else replays verbatim.
func TestSuppressSet(t *testing.T) {
	l := NewLog()
	l.Append(entry("a", "b", "x", 0, 1*time.Millisecond))      // kept
	l.Append(entry("a", "b", "x", 0, 2*time.Millisecond))      // newly dropped
	i := l.Append(entry("a", "b", "x", 0, 3*time.Millisecond)) // prior round
	l.Resolve(i, Suppressed)                                   //
	c := NewCursor(&Replay{Log: l, Edit: SuppressSet(map[int]bool{1: true})}, 0)

	if d, _ := c.Next("a", "b", "x"); d.Suppress {
		t.Error("entry 0 suppressed")
	}
	if d, _ := c.Next("a", "b", "x"); !d.Suppress {
		t.Error("entry 1 not suppressed")
	}
	if d, _ := c.Next("a", "b", "x"); !d.Suppress {
		t.Error("prior-round suppression not preserved")
	}
}

// TestCursorReadsOnlyItsGroup pins the per-group streams of a sharded log:
// every group names its processes alike, so group 1's cursor must skip
// group 0's entries of the same (from, to, type) stream, and each group's
// entries render with the group they belong to (the first one's unnamed).
func TestCursorReadsOnlyItsGroup(t *testing.T) {
	l := NewLog()
	l.Append(entry("a", "b", "x", 0, 1*time.Millisecond))
	g1 := entry("a", "b", "x", 0, 2*time.Millisecond)
	g1.Group = 1
	l.Append(g1)
	l.Append(entry("a", "b", "x", 0, 3*time.Millisecond))
	for _, tc := range []struct {
		group int
		want  []time.Duration
	}{
		{0, []time.Duration{1 * time.Millisecond, 3 * time.Millisecond}},
		{1, []time.Duration{2 * time.Millisecond}},
		{2, nil},
	} {
		c := NewCursor(&Replay{Log: l}, tc.group)
		for i, want := range tc.want {
			if d, ok := c.Next("a", "b", "x"); !ok || d.Delay != want {
				t.Errorf("group %d send %d: %v %v, want delay %v", tc.group, i, d, ok, want)
			}
		}
		if _, ok := c.Next("a", "b", "x"); ok {
			t.Errorf("group %d: stream not exhausted after its own %d entries", tc.group, len(tc.want))
		}
	}
	es := l.Entries()
	if s := es[1].String(); !strings.Contains(s, "shard 1: a → b") {
		t.Errorf("group 1 entry renders without its group: %s", s)
	}
	if s := es[0].String(); strings.Contains(s, "shard") {
		t.Errorf("group 0 entry names a group: %s", s)
	}
}

// TestEntryJSON pins the one JSON form of an entry: the index is implied
// by the order, durations are nanoseconds, and the group appears only
// when it is not 0, so single-cluster schedules encode as they always did.
func TestEntryJSON(t *testing.T) {
	e := Entry{Index: 7, From: "a", To: "b", Type: "x", SendAt: 5, Deadline: 9, Verdict: Delivered}
	for _, tc := range []struct {
		group int
		want  string
	}{
		{0, `{"from":"a","to":"b","type":"x","send_at_ns":5,"deadline_ns":9,"verdict":1}`},
		{2, `{"from":"a","to":"b","type":"x","send_at_ns":5,"deadline_ns":9,"verdict":1,"group":2}`},
	} {
		e.Group = tc.group
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Errorf("group %d: %s, want %s", tc.group, b, tc.want)
		}
		var back Entry
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if want := (Entry{From: "a", To: "b", Type: "x", SendAt: 5, Deadline: 9, Verdict: Delivered, Group: tc.group}); back != want {
			t.Errorf("group %d: decoded %+v, want %+v", tc.group, back, want)
		}
	}
}
