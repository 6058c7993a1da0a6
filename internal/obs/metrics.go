// Package obs is the observability plane: virtual-time metrics, causal
// request traces, and schedule-space coverage fingerprints. It is a leaf
// package (stdlib only) so every layer — simnet, consensus, core, wal,
// fd, scenario — can import it without cycles.
//
// The plane is off-by-default and zero-cost when off: every method is
// nil-receiver-safe, so instrumented code holds a possibly-nil *Metrics
// or *Trace and calls through unconditionally. A nil receiver returns
// before touching any state, which the compiler reduces to a predictable
// branch — no map hashing, no label allocation, no interface boxing on
// any hot path. When a registry is installed, counters are dense-index
// atomic slots (the same discipline as simnet's interned process
// indexes) and histogram observation is a bits.Len64 bucket bump.
//
// All timestamps are virtual: metrics and traces are stamped from the
// simulation clock, never the wall clock, so observation cannot perturb
// determinism. Equal seeds produce byte-equal snapshots and trace
// exports.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"xability/internal/xrand"
)

// Counter is a dense index into the metrics registry. The enum is the
// registry's schema: adding a counter means adding an index and a name,
// nothing else.
type Counter int

const (
	// Message deliveries by type, counted at simnet send.
	MsgSubmit Counter = iota
	MsgResult
	MsgAnnounce
	MsgHeartbeat
	MsgCons
	MsgOther
	MsgDropped // sends lost to partitions, crashes, drop faults, or replay

	// Consensus interior: round starts, timeout retransmits, stale-round
	// catch-ups, proposals entering the funnel, first-receipt decisions.
	ConsRounds
	ConsRetransmits
	ConsCatchUps
	ConsProposals
	ConsDecisions

	// Batch plane: slots formed, requests batched.
	BatchSlots
	BatchReqs

	// Durable plane: WAL appends, total sync-tariff time (ns), snapshot
	// installs and the bytes they wrote/reclaimed, torn-tail drops, and
	// records replayed at recovery.
	WALAppends
	WALSyncNS
	WALCompactions
	WALSnapshotBytes
	WALCompactedBytes
	WALTorn
	WALReplayed

	// Failure-detector transitions.
	FDSuspicions
	FDUnsuspicions

	// Request lifecycle: submits sent, replies accepted, client
	// failovers to a new server, cleaner takeovers, server restarts.
	ReqSubmitted
	ReqReplied
	ReqFailovers
	Takeovers
	Restarts

	NumCounters
)

// counterNames is indexed by Counter and is the stable, human- and
// machine-readable schema for snapshots and rollups.
var counterNames = [NumCounters]string{
	MsgSubmit:         "msg.submit",
	MsgResult:         "msg.result",
	MsgAnnounce:       "msg.announce",
	MsgHeartbeat:      "msg.heartbeat",
	MsgCons:           "msg.cons",
	MsgOther:          "msg.other",
	MsgDropped:        "msg.dropped",
	ConsRounds:        "cons.rounds",
	ConsRetransmits:   "cons.retransmits",
	ConsCatchUps:      "cons.catchups",
	ConsProposals:     "cons.proposals",
	ConsDecisions:     "cons.decisions",
	BatchSlots:        "batch.slots",
	BatchReqs:         "batch.reqs",
	WALAppends:        "wal.appends",
	WALSyncNS:         "wal.sync_ns",
	WALCompactions:    "wal.compactions",
	WALSnapshotBytes:  "wal.snapshot_bytes",
	WALCompactedBytes: "wal.compacted_bytes",
	WALTorn:           "wal.torn",
	WALReplayed:       "wal.replayed",
	FDSuspicions:      "fd.suspicions",
	FDUnsuspicions:    "fd.unsuspicions",
	ReqSubmitted:      "req.submitted",
	ReqReplied:        "req.replied",
	ReqFailovers:      "req.failovers",
	Takeovers:         "req.takeovers",
	Restarts:          "srv.restarts",
}

// Name returns the counter's schema name.
func (c Counter) Name() string { return counterNames[c] }

// Gauge is a dense index into the registry's maximum-tracking slots.
type Gauge int

const (
	GaugePipelineDepth Gauge = iota // max slots in flight at once
	GaugeBatchMax                   // largest batch formed

	NumGauges
)

var gaugeNames = [NumGauges]string{
	GaugePipelineDepth: "batch.pipeline_depth_max",
	GaugeBatchMax:      "batch.size_max",
}

// Name returns the gauge's schema name.
func (g Gauge) Name() string { return gaugeNames[g] }

// latBuckets is the latency histogram's bucket count: power-of-two
// buckets indexed by bits.Len64(ns), so bucket i holds observations in
// [2^(i-1), 2^i) nanoseconds. 64 buckets cover every int64 duration.
const latBuckets = 64

// histogram is one latency series: power-of-two bucket counts plus the
// sum, count and maximum of the observations, every slot atomic.
type histogram struct {
	bucket [latBuckets]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
	max    atomic.Int64
}

// observe records one duration; negative ones count as zero.
func (h *histogram) observe(d time.Duration) {
	ns := max(int64(d), 0)
	h.bucket[bits.Len64(uint64(ns))&(latBuckets-1)].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// reset clears every slot.
func (h *histogram) reset() {
	for i := range h.bucket {
		h.bucket[i].Store(0)
	}
	h.sum.Store(0)
	h.count.Store(0)
	h.max.Store(0)
}

// read returns the series' count, sum and maximum, and its 50th and 99th
// percentiles.
func (h *histogram) read() (count, sum, maxNS, p50, p99 int64) {
	count, sum, maxNS = h.count.Load(), h.sum.Load(), h.max.Load()
	return count, sum, maxNS, h.quantile(50, count, maxNS), h.quantile(99, count, maxNS)
}

// quantile returns the upper bound of the bucket holding the q-th
// percentile observation (nearest-rank over the bucketed counts).
func (h *histogram) quantile(q, count, maxNS int64) int64 {
	if count == 0 {
		return 0
	}
	rank := max((count*q+99)/100, 1)
	var seen int64
	for i := range h.bucket {
		seen += h.bucket[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return 1 << i // upper bound of [2^(i-1), 2^i)
		}
	}
	return maxNS
}

// Metrics is the per-run registry. All slots are fixed-size arrays
// updated atomically; the struct allocates once at construction and is
// reused across runs via Reset (the sweep workers' recycling
// discipline). The zero *Metrics (nil) is a valid, free no-op registry.
type Metrics struct {
	counters [NumCounters]atomic.Int64
	gauges   [NumGauges]atomic.Int64

	// Request end-to-end latency.
	lat histogram
	// Crash→recovered latency (virtual time from CrashServer to the
	// restarted replica's Start returning).
	rec histogram

	// Schedule-space coverage: a streaming order-dependent hash over the
	// run's delivery sequence. Deliveries execute one at a time on the
	// virtual clock's pump, so the sequence — and the hash — is
	// deterministic per seed. The mutex is for -race hygiene across the
	// pump's worker goroutines, not for ordering.
	covMu sync.Mutex
	cov   uint64
}

// NewMetrics returns an installed (non-nil, counting) registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Inc bumps a counter by one. Safe on a nil receiver (no-op).
func (m *Metrics) Inc(c Counter) {
	if m == nil {
		return
	}
	m.counters[c].Add(1)
}

// Add bumps a counter by n. Safe on a nil receiver (no-op).
func (m *Metrics) Add(c Counter, n int64) {
	if m == nil {
		return
	}
	m.counters[c].Add(n)
}

// SetMax raises a maximum-tracking gauge to v if v exceeds the current
// value. Safe on a nil receiver (no-op).
func (m *Metrics) SetMax(g Gauge, v int64) {
	if m == nil {
		return
	}
	slot := &m.gauges[g]
	for {
		cur := slot.Load()
		if v <= cur || slot.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Observe records one end-to-end request latency. Safe on a nil
// receiver (no-op).
func (m *Metrics) Observe(d time.Duration) {
	if m == nil {
		return
	}
	m.lat.observe(d)
}

// ObserveRecovery records one crash→recovered latency. Safe on a nil
// receiver (no-op).
func (m *Metrics) ObserveRecovery(d time.Duration) {
	if m == nil {
		return
	}
	m.rec.observe(d)
}

// Cover folds one delivery event into the run's interleaving-class
// fingerprint: the interned sender index, receiver index, and message
// class, mixed with a splitmix64-style step. Order-dependent by design —
// two runs land in the same class exactly when their delivery sequences
// match. Safe on a nil receiver (no-op).
func (m *Metrics) Cover(from, to int32, class uint8) {
	if m == nil {
		return
	}
	x := uint64(uint32(from))<<40 | uint64(uint32(to))<<8 | uint64(class)
	m.covMu.Lock()
	m.cov = xrand.Mix64(m.cov ^ x)
	m.covMu.Unlock()
}

// Reset clears every slot for reuse across runs (the sweep workers'
// per-seed recycling). Safe on a nil receiver (no-op).
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	for i := range m.counters {
		m.counters[i].Store(0)
	}
	for i := range m.gauges {
		m.gauges[i].Store(0)
	}
	m.lat.reset()
	m.rec.reset()
	m.covMu.Lock()
	m.cov = 0
	m.covMu.Unlock()
}

// ClassOf maps a simnet message type string to its coverage class and
// counter. The switch is the no-map classifier: type strings are
// compile-time constants at every send site, so this is a handful of
// length+byte compares, never a hash.
func ClassOf(typ string) (uint8, Counter) {
	switch typ {
	case "submit":
		return 1, MsgSubmit
	case "result":
		return 2, MsgResult
	case "announce", "pb-processed", "ab-sequenced":
		return 3, MsgAnnounce
	case "heartbeat":
		return 4, MsgHeartbeat
	case "cons":
		return 5, MsgCons
	}
	return 0, MsgOther
}

// Snapshot is a flat, comparable-free copy of the registry at one
// virtual instant. Percentiles are derived from the power-of-two
// buckets at snapshot time (upper bucket bound, a deterministic
// overestimate of at most 2x).
type Snapshot struct {
	Counters [NumCounters]int64
	Gauges   [NumGauges]int64

	LatCount int64
	LatSumNS int64
	LatMaxNS int64
	LatP50NS int64
	LatP99NS int64

	// Crash→recovered latency distribution (zero when nothing restarted).
	RecCount int64
	RecSumNS int64
	RecMaxNS int64
	RecP50NS int64
	RecP99NS int64

	Coverage uint64
}

// Snapshot copies the registry. Call it at a pinned virtual instant
// (the settle horizon, between the driver's waits) so concurrent
// unwinding cannot smear the numbers. A nil receiver returns nil.
func (m *Metrics) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	s := &Snapshot{}
	for i := range m.counters {
		s.Counters[i] = m.counters[i].Load()
	}
	for i := range m.gauges {
		s.Gauges[i] = m.gauges[i].Load()
	}
	s.LatCount, s.LatSumNS, s.LatMaxNS, s.LatP50NS, s.LatP99NS = m.lat.read()
	s.RecCount, s.RecSumNS, s.RecMaxNS, s.RecP50NS, s.RecP99NS = m.rec.read()
	m.covMu.Lock()
	s.Coverage = m.cov
	m.covMu.Unlock()
	return s
}

// Run bundles the optional per-run observability handles threaded
// through an execution. Either field may be nil independently.
type Run struct {
	Metrics *Metrics
	Trace   *Trace
}
