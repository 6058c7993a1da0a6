// Package schedule makes a simulated run's delivery schedule a first-class
// value. simnet's scheduler is deterministic given a seed, but the seed is
// an opaque integer: it explains nothing about *which* deliveries produced
// a failure. This package records every delivery decision the network makes
// into an ordered Log — message index, link, virtual-time deadline,
// drop/delay verdict — keyed so that a run is fully determined by
// (scenario, seed, log). A recorded log can then be replayed: the network
// re-derives each message's delay from the log instead of the seeded
// generator, and an Edit function may suppress, delay, or reorder
// individual deliveries. Record and replay compose (a replayed run can be
// re-recorded), which is what lets the shrinker (internal/shrink) iterate
// ddmin edits toward a minimal counterexample trace.
//
// The package deliberately knows nothing about simnet: links are plain
// strings, times are virtual-clock durations. simnet imports schedule, not
// the reverse.
package schedule

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Verdict is the fate of one logged send.
type Verdict int

const (
	// Scheduled is the transient verdict between send and delivery; a
	// well-formed finished run contains none (every entry resolves to one
	// of the verdicts below).
	Scheduled Verdict = iota
	// Delivered means the message reached its destination mailbox at the
	// deadline.
	Delivered
	// DroppedSend means the link fault plane black-holed the message at
	// send time (partition or dropped link in force).
	DroppedSend
	// DroppedDeliver means the message was black-holed at its delivery
	// instant (link severed, destination crashed, or network closed while
	// the message was in flight).
	DroppedDeliver
	// Suppressed means a replay Edit removed the delivery (the shrinker's
	// primitive operation). Recording a replayed run preserves the
	// suppression, so iterated shrink rounds compose.
	Suppressed
)

// String renders the verdict for trace listings.
func (v Verdict) String() string {
	switch v {
	case Scheduled:
		return "scheduled"
	case Delivered:
		return "delivered"
	case DroppedSend:
		return "dropped@send"
	case DroppedDeliver:
		return "dropped@deliver"
	case Suppressed:
		return "suppressed"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Entry is one delivery decision: the Index-th send of the run. Group,
// From, To and Type identify the message stream — Group is the index of
// the replica group whose network sent it (0 for a single cluster), since
// every group names its processes alike; SendAt and Deadline are virtual
// times (the deadline is the delivery instant the scheduler fixed at send
// time). The JSON form is the one shrink artifacts and recorded test
// schedules share: durations in nanoseconds, Index implied by the order,
// Group omitted when 0.
type Entry struct {
	Index    int           `json:"-"`
	From     string        `json:"from"`
	To       string        `json:"to"`
	Type     string        `json:"type"`
	SendAt   time.Duration `json:"send_at_ns"`
	Deadline time.Duration `json:"deadline_ns"`
	Verdict  Verdict       `json:"verdict"`
	Group    int           `json:"group,omitempty"`
}

// Delay is the entry's scheduled delivery delay.
func (e Entry) Delay() time.Duration { return e.Deadline - e.SendAt }

// String renders the entry as one trace line. An entry of any group but
// the first is prefixed as a fault op on that group is ("shard 1: "), so
// a single cluster's lines name no group.
func (e Entry) String() string {
	group := ""
	if e.Group > 0 {
		group = fmt.Sprintf("shard %d: ", e.Group)
	}
	return fmt.Sprintf("#%-4d %10v → %-10v  %s%s → %s  %s  %s",
		e.Index, e.SendAt, e.Deadline, group, e.From, e.To, e.Type, e.Verdict)
}

// Log is the ordered schedule of one run. The network appends one entry per
// send and resolves its verdict at the delivery instant. A Log is safe for
// concurrent use (the clock serializes events, not the goroutines one
// event makes runnable: two senders can be on real cores at once).
type Log struct {
	mu      sync.Mutex
	entries []Entry
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append records a new entry and returns its index. The caller fills every
// field except Index, which Append assigns from the append order.
func (l *Log) Append(e Entry) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Index = len(l.entries)
	l.entries = append(l.entries, e)
	return e.Index
}

// Resolve sets the final verdict of entry i (delivery or in-flight drop).
func (l *Log) Resolve(i int, v Verdict) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= 0 && i < len(l.entries) {
		l.entries[i].Verdict = v
	}
}

// Entries returns a copy of the log in send order.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

// Len reports the number of logged sends.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// DeliveredCount reports how many entries resolved to Delivered — the size
// of the effective trace.
func (l *Log) DeliveredCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.entries {
		if e.Verdict == Delivered {
			n++
		}
	}
	return n
}

// String renders the whole log, one entry per line.
func (l *Log) String() string {
	var b strings.Builder
	for i, e := range l.Entries() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// Decision is what replay does with one matched send: deliver after Delay,
// or suppress it entirely.
type Decision struct {
	// Suppress drops the message at send time (it is logged as Suppressed
	// when the replayed run records).
	Suppress bool
	// Delay is the delivery delay to use instead of the seeded draw.
	// Ignored when Suppress is set.
	Delay time.Duration
}

// Edit rewrites the verbatim decision for one log entry. The verbatim
// decision carries the recorded delay and preserves recorded suppressions
// (Verdict == Suppressed arrives with Suppress already true). A nil Edit
// replays the log exactly as recorded.
type Edit func(e Entry, verbatim Decision) Decision

// SuppressSet is an Edit that additionally suppresses the entries whose
// index is in drop and replays everything else verbatim — the shrinker's
// workhorse.
func SuppressSet(drop map[int]bool) Edit {
	return func(e Entry, d Decision) Decision {
		if drop[e.Index] {
			d.Suppress = true
		}
		return d
	}
}

// Replay is the immutable specification of a replayed run: the log to
// follow and an optional edit. A Replay value can be shared across runs;
// the per-run cursor state lives in the network (see NewCursor).
type Replay struct {
	Log  *Log
	Edit Edit
}

// streamKey matches sends to log entries. Matching is per message stream —
// the k-th send from A to B of type T matches the k-th logged entry of the
// same stream — so a replayed run that diverges on one stream (an extra
// retransmission, a message that no longer happens) stays aligned on every
// other stream.
type streamKey struct{ from, to, typ string }

// Cursor is the per-run consumption state of a Replay for one group's
// network: each matched send consumes the next entry of its stream among
// that group's entries. Sends beyond the log (the replayed run diverged
// and produced traffic the recording never saw) fall back to the seeded
// draw, which keeps divergent runs deterministic too.
type Cursor struct {
	mu      sync.Mutex
	streams map[streamKey][]decided
	pos     map[streamKey]int
}

// decided is a log entry with its edit applied once, at cursor build time.
type decided struct {
	entry    Entry
	decision Decision
}

// NewCursor builds the per-run cursor for a replay spec on group's
// network: the other groups' entries are skipped. Returns nil for a nil
// spec or nil log.
func NewCursor(r *Replay, group int) *Cursor {
	if r == nil || r.Log == nil {
		return nil
	}
	c := &Cursor{
		streams: make(map[streamKey][]decided),
		pos:     make(map[streamKey]int),
	}
	for _, e := range r.Log.Entries() {
		if e.Group != group {
			continue
		}
		// The verbatim decision honors the recorded verdict: an entry a
		// previous replay suppressed stays suppressed, so a log
		// round-trips through replay without an edit.
		d := Decision{Delay: e.Delay(), Suppress: e.Verdict == Suppressed}
		if r.Edit != nil {
			d = r.Edit(e, d)
		}
		k := streamKey{e.From, e.To, e.Type}
		c.streams[k] = append(c.streams[k], decided{entry: e, decision: d})
	}
	return c
}

// Next consumes the next log entry of the (from, to, typ) stream. ok is
// false when the stream is exhausted (or never recorded): the caller falls
// back to its seeded draw.
func (c *Cursor) Next(from, to, typ string) (Decision, bool) {
	if c == nil {
		return Decision{}, false
	}
	k := streamKey{from, to, typ}
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.pos[k]
	s := c.streams[k]
	if i >= len(s) {
		return Decision{}, false
	}
	c.pos[k] = i + 1
	return s[i].decision, true
}
