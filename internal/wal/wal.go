// Package wal simulates stable storage: per-process write-ahead logs whose
// sync latency is charged on the virtual clock.
//
// The paper's failure model (§2) lets processes crash and recover, and its
// hardest demands — replay effects idempotently, never twice — only bite
// when a replica comes back with its memory gone. This package is the
// "disk" that survives the crash: a Store models the deployment's stable
// storage, one Log per process, and a crash (which tears down the
// process's goroutines and in-memory state) leaves the Log untouched. A
// restarted process replays its Log to rebuild exactly the state it had
// promised to remember.
//
// Durability has a price, and the price is the point: every Append charges
// a configurable sync latency on the clock (a CostModel-style tariff, the
// fsync of the simulation), so experiments can plot what exactly-once
// recovery costs against how often it is needed (EXPERIMENTS.md T12, T14).
// A zero tariff appends without touching the schedule at all, so
// deployments that never restart are byte-identical with the WAL on or
// off.
//
// Two refinements keep the disk honest over long histories:
//
//   - Torn tails. A record is durable only once its sync completes. A
//     crash that lands between Append and the end of the sync wait tears
//     the unsynced suffix off the log — deterministically, at the crash's
//     virtual instant — so recovery never sees a write the process was
//     still paying for. (Store.Crash is the crash plane's hook.)
//
//   - Snapshots and compaction. Without truncation the log is O(history).
//     A writer registers a Compactor — a pure fold over its own records
//     that produces an equivalent, smaller prefix (its durable state as
//     records) — and the log replaces the synced prefix with that
//     snapshot when the threshold is reached, charging a snapshot-size
//     tariff on the clock. Recovery then replays snapshot-then-suffix
//     through the same Replay path; the fold's contract is precisely
//     replay(snapshot+suffix) ≡ replay(full log). Like a real
//     implementation's side-file swap, an installation is atomic: a crash
//     during the snapshot write discards the torn snapshot and leaves the
//     old log intact.
//
// Appends are deliberately generic — flat Record fields, no imports from
// the protocol layers — so consensus acceptors and protocol servers share
// one log format and one replay discipline (DESIGN.md §9).
package wal

import (
	"sync"
	"time"

	"xability/internal/obs"
	"xability/internal/vclock"
)

// Record is one durable log entry. The fields are a flat superset of what
// the protocol layers persist; each layer uses the subset it needs and
// tags entries with its own Kind. Flat fields (instead of a boxed
// per-layer payload) keep Append allocation-free on the hot path: strings
// slot into Key/Str without boxing, and Val is reserved for values that
// are interfaces already upstream (consensus estimates and decisions).
type Record struct {
	// Kind tags the record type; namespacing is by convention per writer
	// ("est", "dec" for consensus; "req", "round", "fin" for the server;
	// "snap" marks a compaction snapshot's head).
	Kind string
	// Key is the primary key: a request ID or a consensus instance ID.
	Key string
	// Space subdivides Key (the consensus key space: owner/result/outcome).
	Space uint8
	// Round is the instance round of the keyed entry.
	Round int32
	// Aux is a secondary round — e.g. the adoption timestamp an acceptor
	// must remember alongside its estimate.
	Aux int32
	// Str is a string payload (a result value, a client process ID).
	Str string
	// Val is a boxed payload for values that already travel as interfaces.
	Val any
}

// KindSnapshot is the Kind of the marker record a compaction installs at
// the head of the snapshot it wrote. Round carries the snapshot's record
// count and Aux the compaction's ordinal; replayers ignore the marker
// (their replay switches skip kinds they don't own), it exists so a log
// dump shows where history was folded.
const KindSnapshot = "snap"

// Compactor is a writer's snapshot function: a pure fold over its own
// synced records that returns an equivalent, smaller sequence — the
// writer's durable state re-expressed as records. The contract is
// replay(Compactor(prefix) ++ suffix) ≡ replay(prefix ++ suffix) for any
// suffix the writer may append later. It must not take locks or touch the
// clock: it runs on the compacting goroutine with no log lock held, on a
// private copy of the prefix.
type Compactor func(prefix []Record) []Record

// Config tunes the store's tariffs and compaction policy.
type Config struct {
	// SyncLatency is charged on the clock for every Append — the cost of
	// forcing the entry to stable storage before acting on it. Zero (the
	// default) makes appends free and schedule-invisible: runs with and
	// without an idle WAL stay byte-identical.
	SyncLatency time.Duration
	// SnapshotSync is the per-record tariff for writing a compaction
	// snapshot. Snapshots are bulk sequential writes, so zero (the
	// default) derives SyncLatency/4; a negative value makes snapshots
	// explicitly free. The whole snapshot charges (records+1) times this
	// tariff (the +1 is the marker) in one sleep.
	SnapshotSync time.Duration
	// CompactThreshold triggers compaction: a log whose synced record
	// count has grown by at least this much since its last compaction
	// attempt folds its prefix through the writer's Compactor. Zero
	// disables automatic compaction (Compact can still be called
	// explicitly).
	CompactThreshold int
	// Metrics, when non-nil, receives per-append counters (wal.appends,
	// wal.sync_ns, wal.compactions, ...) in the run's registry. Nil
	// costs nothing.
	Metrics *obs.Metrics
}

// Stats aggregates the store's activity for cost-curve experiments.
type Stats struct {
	// Appends counts records forced to stable storage, over all logs.
	Appends int
	// SyncTime is the total virtual time spent in sync waits.
	SyncTime time.Duration
	// Compactions counts installed snapshots over all logs.
	Compactions int
	// SnapshotRecords counts records written into installed snapshots.
	SnapshotRecords int
	// CompactedRecords counts prefix records folded away by compaction.
	CompactedRecords int
	// CompactedBytes is the (modeled) byte volume compaction reclaimed:
	// prefix bytes minus snapshot bytes, accumulated over all installs.
	CompactedBytes int
	// TornRecords counts unsynced records dropped by crashes (the torn
	// tail: appended, but the process died before the sync completed).
	TornRecords int
	// LiveRecords and LiveBytes are the store's current footprint over
	// all logs — what a recovery would replay. With compaction on, live
	// size is O(state); without it, O(history).
	LiveRecords int
	LiveBytes   int
}

// Plus returns the field-wise sum of two Stats — the aggregation a
// multi-store deployment (one wal.Store per replica group) uses to
// report storage activity for the whole fleet.
func (s Stats) Plus(t Stats) Stats {
	s.Appends += t.Appends
	s.SyncTime += t.SyncTime
	s.Compactions += t.Compactions
	s.SnapshotRecords += t.SnapshotRecords
	s.CompactedRecords += t.CompactedRecords
	s.CompactedBytes += t.CompactedBytes
	s.TornRecords += t.TornRecords
	s.LiveRecords += t.LiveRecords
	s.LiveBytes += t.LiveBytes
	return s
}

// recordBytes models a record's on-disk size: a fixed header plus its
// string payloads (Val is boxed upstream; charge a pointer-pair).
func recordBytes(r Record) int {
	n := 32 + len(r.Kind) + len(r.Key) + len(r.Str)
	if r.Val != nil {
		n += 16
	}
	return n
}

func recordsBytes(recs []Record) int {
	n := 0
	for _, r := range recs {
		n += recordBytes(r)
	}
	return n
}

// Store models one deployment's stable storage: a set of per-process logs
// that survive process crashes. Logs are keyed by process ID string; a
// restarted process asks for its log by the same name and finds its
// pre-crash records.
type Store struct {
	clk *vclock.Virtual
	cfg Config

	mu             sync.Mutex
	logs           map[string]*Log
	names          []string // insertion-ordered log names, for deterministic iteration
	appends        int
	synced         time.Duration
	compactions    int
	snapRecs       int
	compactedRecs  int
	compactedBytes int
	torn           int
}

// NewStore builds the deployment's stable storage on the given clock.
func NewStore(clk *vclock.Virtual, cfg Config) *Store {
	return &Store{clk: clk, cfg: cfg, logs: make(map[string]*Log)}
}

// Log returns the named process's log, creating it empty on first use.
// Calling Log again with the same name — before or after a crash —
// returns the same log: the disk outlives the process.
func (s *Store) Log(proc string) *Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.logs[proc]
	if !ok {
		l = &Log{store: s, proc: proc}
		s.logs[proc] = l
		s.names = append(s.names, proc)
	}
	return l
}

// SyncLatency reports the configured per-append tariff.
func (s *Store) SyncLatency() time.Duration { return s.cfg.SyncLatency }

// snapshotSync resolves the per-record snapshot tariff.
func (s *Store) snapshotSync() time.Duration {
	d := s.cfg.SnapshotSync
	if d == 0 {
		return s.cfg.SyncLatency / 4
	}
	if d < 0 {
		return 0
	}
	return d
}

// Crash records a process crash at the current virtual instant: every
// named log's unsynced suffix is torn off, and in-flight snapshot
// installations are aborted (the side file is discarded, the old prefix
// stands). Deterministic: whether a record survives depends only on the
// schedule order of the crash event versus its sync-completion event.
// Returns the number of torn records.
func (s *Store) Crash(procs ...string) int {
	total := 0
	for _, p := range procs {
		s.mu.Lock()
		l := s.logs[p]
		s.mu.Unlock()
		if l == nil {
			continue
		}
		total += l.tear()
	}
	if total > 0 {
		s.mu.Lock()
		s.torn += total
		s.mu.Unlock()
		s.cfg.Metrics.Add(obs.WALTorn, int64(total))
	}
	return total
}

// Stats returns the store's aggregate activity. Live sizes are computed
// at call time over every log (order-independent sums, so the map walk
// cannot leak schedule nondeterminism).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Appends:          s.appends,
		SyncTime:         s.synced,
		Compactions:      s.compactions,
		SnapshotRecords:  s.snapRecs,
		CompactedRecords: s.compactedRecs,
		CompactedBytes:   s.compactedBytes,
		TornRecords:      s.torn,
	}
	names := append([]string(nil), s.names...)
	s.mu.Unlock()
	for _, name := range names {
		l := s.Log(name)
		l.mu.Lock()
		st.LiveRecords += len(l.recs)
		st.LiveBytes += recordsBytes(l.recs)
		l.mu.Unlock()
	}
	return st
}

// Log is one process's write-ahead log.
type Log struct {
	store   *Store
	proc    string
	compact Compactor

	mu          sync.Mutex
	recs        []Record
	synced      int    // recs[:synced] are durable; the rest are paying their sync
	gen         uint64 // bumped by tear(): invalidates in-flight syncs and installs
	compacting  bool
	compactedAt int // synced watermark at the last compaction attempt
	installs    int32
}

// SetCompactor registers the writer's snapshot fold. Call it before the
// log sees traffic (at process construction or recovery); the log never
// compacts without one.
func (l *Log) SetCompactor(fn Compactor) {
	l.mu.Lock()
	l.compact = fn
	l.mu.Unlock()
}

// Append forces one record to stable storage, charging the store's sync
// latency on the clock. The record is durable only once Append returns:
// a crash during the sync wait tears it (and any later unsynced records)
// off the log. The caller must not hold any lock that clock goroutines
// block on: the sync wait is a scheduled event,
// and a goroutine blocked on a caller-held mutex counts as runnable to the
// clock, which would stall virtual time forever. Append itself takes only
// the log's internal lock, and releases it before sleeping.
func (l *Log) Append(r Record) {
	var k Sync
	for d := k.begin(l, r); d > 0; d = k.next() {
		l.store.clk.Sleep(d)
	}
}

// AppendThen is Append for code that runs on the clock's pump and may not
// sleep (a vclock.Runner, an endpoint handler): it appends r, pays each
// tariff as an AfterRunner of k, and then runs then — the caller's Runner,
// which reads k.Torn. At zero tariff everything, then included, runs
// inline before AppendThen returns. k carries one append at a time: a
// writer embeds one per sequential stream of appends, and must not reuse
// it before then has been entered.
func (l *Log) AppendThen(r Record, k *Sync, then vclock.Runner) {
	k.then = then
	if d := k.begin(l, r); d > 0 {
		l.store.clk.AfterRunner(d, k)
		return
	}
	k.finish()
}

// Sync is one append's work after its record is written: the durable
// watermark and the torn check once the sync tariff is paid, then
// compaction with its snapshot tariff and the install. Append runs it on
// the calling goroutine, sleeping each tariff; AppendThen runs it on the
// pump, each tariff an AfterRunner of the Sync itself, so one code path
// serves both. The zero value is ready.
type Sync struct {
	l    *Log
	then vclock.Runner
	step syncStep
	gen  uint64 // the log's generation when the record was written, or the snapshot cut
	torn bool

	// The compaction in flight: the synced prefix it folds and the snapshot
	// it installs once the snapshot tariff is paid.
	cut    int
	prefix []Record
	snap   []Record
}

type syncStep uint8

const (
	syncPaid    syncStep = iota // the sync tariff elapsed: torn check, watermark
	syncCompact                 // the record is durable: compact if due
	syncInstall                 // the snapshot tariff elapsed: install
	syncDone
)

// Torn reports whether the last append's record was torn off by a crash
// during its sync: it never became durable.
func (k *Sync) Torn() bool { return k.torn }

// Run implements vclock.Runner: the tariff AppendThen scheduled has been
// paid; carry on with the post-sync work.
func (k *Sync) Run() {
	if d := k.next(); d > 0 {
		k.l.store.clk.AfterRunner(d, k)
		return
	}
	k.finish()
}

func (k *Sync) finish() {
	then := k.then
	k.then = nil
	then.Run()
}

// begin writes r and returns the sync tariff to pay before next, or — at
// zero tariff, with the record durable at once — the result of next.
func (k *Sync) begin(l *Log, r Record) time.Duration {
	s := l.store
	d := s.cfg.SyncLatency
	l.mu.Lock()
	l.recs = append(l.recs, r)
	k.l, k.gen, k.torn = l, l.gen, false
	if d <= 0 {
		l.synced++
	}
	l.mu.Unlock()
	s.mu.Lock()
	s.appends++
	s.synced += d
	s.mu.Unlock()
	s.cfg.Metrics.Inc(obs.WALAppends)
	s.cfg.Metrics.Add(obs.WALSyncNS, int64(d))
	if d > 0 {
		k.step = syncPaid
		return d
	}
	k.step = syncCompact
	return k.next()
}

// next does the post-sync work that is due and returns the tariff to pay
// before it is called again, or 0 once the append is complete.
func (k *Sync) next() time.Duration {
	l := k.l
	switch k.step {
	case syncPaid:
		l.mu.Lock()
		k.torn = l.gen != k.gen
		if !k.torn {
			// Sync waits complete in append order (equal tariffs, FIFO
			// deadlines), so the durable watermark advances one commit at
			// a time.
			l.synced++
		}
		l.mu.Unlock()
		if k.torn {
			// The process died mid-sync; the record is gone and so is the
			// process — nothing further to do on its behalf.
			k.step = syncDone
			return 0
		}
		fallthrough
	case syncCompact:
		k.step = syncDone
		if th := l.store.cfg.CompactThreshold; th > 0 && l.claimCompaction(th) {
			return k.fold()
		}
	case syncInstall:
		k.step = syncDone
		k.install()
	}
	return 0
}

// claimCompaction marks a compaction in progress when the writer has a
// Compactor, none is running, and the synced prefix has grown th records
// past the last attempt (th 0: whatever it has grown).
func (l *Log) claimCompaction(th int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	run := l.compact != nil && !l.compacting && (th == 0 || l.synced >= l.compactedAt+th)
	if run {
		l.compacting = true
	}
	return run
}

// Compact folds the synced prefix through the registered Compactor now,
// regardless of threshold, and reports whether a snapshot was installed.
// Safe from any caller that may wait on the clock (see vclock.Virtual).
func (l *Log) Compact() bool {
	if !l.claimCompaction(0) {
		return false
	}
	before := l.Installs()
	k := Sync{l: l}
	for d := k.fold(); d > 0; d = k.next() {
		l.store.clk.Sleep(d)
	}
	return l.Installs() > before
}

// fold snapshots the synced prefix through the Compactor and returns the
// snapshot-size tariff to pay before the install, installing at once when
// the tariff is free. A fold that cannot shrink the prefix writes nothing.
// The caller has claimed the compaction.
func (k *Sync) fold() time.Duration {
	l, s := k.l, k.l.store
	l.mu.Lock()
	k.cut = l.synced
	k.gen = l.gen
	k.prefix = append([]Record(nil), l.recs[:k.cut]...)
	l.mu.Unlock()

	k.snap = l.compact(k.prefix)
	if len(k.snap)+1 >= k.cut {
		// The fold cannot shrink this prefix; skip the write and move the
		// watermark so the next attempt waits for a full threshold of
		// fresh records.
		l.mu.Lock()
		l.compacting = false
		if l.gen == k.gen {
			l.compactedAt = l.synced
		}
		l.mu.Unlock()
		k.prefix, k.snap = nil, nil
		return 0
	}
	if d := s.snapshotSync() * time.Duration(len(k.snap)+1); d > 0 {
		// The install is a stable-storage write like any other: its
		// virtual-time price lands in SyncTime so the cost curves see the
		// whole durability bill, not just the append tariff.
		s.mu.Lock()
		s.synced += d
		s.mu.Unlock()
		s.cfg.Metrics.Add(obs.WALSyncNS, int64(d))
		k.step = syncInstall
		return d
	}
	k.install()
	return 0
}

// install atomically swaps the folded snapshot in for the prefix — unless
// a crash landed during the snapshot write, in which case the torn
// snapshot is discarded and the log is left exactly as it was.
func (k *Sync) install() {
	l, s := k.l, k.l.store
	cut, prefix, snap := k.cut, k.prefix, k.snap
	k.prefix, k.snap = nil, nil
	l.mu.Lock()
	l.compacting = false
	if l.gen != k.gen {
		// Crashed while the snapshot was being written: the side file is
		// torn, the old log stands.
		l.mu.Unlock()
		return
	}
	l.installs++
	head := Record{Kind: KindSnapshot, Round: int32(len(snap)), Aux: l.installs}
	tail := l.recs[cut:]
	nr := make([]Record, 0, 1+len(snap)+len(tail))
	nr = append(nr, head)
	nr = append(nr, snap...)
	nr = append(nr, tail...)
	l.recs = nr
	l.synced = 1 + len(snap) + (l.synced - cut)
	l.compactedAt = l.synced
	l.mu.Unlock()

	prefixBytes := recordsBytes(prefix)
	snapBytes := recordBytes(head) + recordsBytes(snap)
	s.mu.Lock()
	s.compactions++
	s.snapRecs += len(snap)
	s.compactedRecs += cut - len(snap) - 1
	s.compactedBytes += prefixBytes - snapBytes
	s.mu.Unlock()
	s.cfg.Metrics.Inc(obs.WALCompactions)
	s.cfg.Metrics.Add(obs.WALSnapshotBytes, int64(snapBytes))
	s.cfg.Metrics.Add(obs.WALCompactedBytes, int64(prefixBytes-snapBytes))
}

// tear drops the unsynced suffix at a crash and invalidates in-flight
// syncs and snapshot installs.
func (l *Log) tear() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.recs) - l.synced
	if n > 0 {
		l.recs = l.recs[:l.synced:l.synced]
	}
	l.gen++
	if l.compactedAt > l.synced {
		l.compactedAt = l.synced
	}
	return n
}

// Len reports the number of records in the log.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Installs reports how many snapshots compaction has installed.
func (l *Log) Installs() int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.installs
}

// Replay calls fn for every record in append order. It snapshots under the
// log lock and replays outside it, so fn may append (recovery code that
// re-persists is safe, if unusual).
func (l *Log) Replay(fn func(Record)) {
	l.mu.Lock()
	recs := append([]Record(nil), l.recs...)
	l.mu.Unlock()
	for _, r := range recs {
		fn(r)
	}
}
