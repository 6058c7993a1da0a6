// Package simnet is an in-memory asynchronous message-passing network with
// crash-stop processes, implementing the system model of §5.2:
//
//   - Processes fail by crashing. A crashed process silently stops sending
//     and receiving until a Restart revives it; §5.2's no-recovery model is
//     a run that never restarts one.
//   - Channels are reliable between correct processes: every message sent
//     from a correct process to a correct process is eventually delivered,
//     exactly once. Delivery order is *not* FIFO: each message experiences
//     an independent random delay drawn from a seeded generator, which is
//     what makes the system asynchronous.
//
// Delays are measured on the network's clock (internal/vclock), which is
// virtual: deliveries are entries in a discrete-event queue, the simulation
// advances to the next pending deadline while someone waits on the clock
// and nothing else runs, and a run's wall-clock cost is the CPU it burns,
// not the delays it simulates.
//
// Delay draws come from one seeded stream per network, advanced once per
// send. The clock runs one goroutine at a time — a spawn is an event too —
// so the order of sends, and with it the delay each send draws, is a
// function of the seed.
//
// Beyond crash-stop, the network exposes a link-level fault plane for
// adversarial scenarios: a delay-storm multiplier on the uniform draw
// (SetDelayScale), and black-holed links — Partition splits processes into
// non-communicating groups (a pair of singleton groups cuts one link), Heal
// repairs everything. Link faults drop messages
// silently (at send time and at the delivery instant), which is exactly
// how the model's asynchrony lets an adversary behave; crashed-process
// semantics are untouched.
//
// The scheduler is also observable and steerable: Config.Record logs
// every delivery decision (link, deadline, drop/delay verdict) into a
// schedule.Log, making a run a replayable (scenario, seed, log) value, and
// Config.Replay re-executes a recorded log — optionally edited to
// suppress, stretch, or reorder individual deliveries — which is the
// substrate the delta-debugging shrinker (internal/shrink) minimizes
// failing schedules on. Both planes cost nothing when disabled: the hot
// send path touches them only behind nil checks.
//
// The network is built for seed sweeps: process identities are interned at
// Register into dense indexes, so the per-send state (crash flags, send
// counters, partition groups) lives in slices rather than hash maps, and
// delivery events are pooled Runners on the virtual clock —
// a steady-state Send/Recv round trip performs no heap allocation and
// starts no goroutine. What runs where: Send runs on the sender's
// goroutine; the delivery (link check, record verdict, coverage fold,
// mailbox push or handler call) runs on the clock's pump at the delivery
// instant; Recv returns on the receiver's goroutine once the pump wakes
// it. An endpoint given a handler (Endpoint.Handle) has no receiver: the
// delivery calls the handler, under the vclock.Runner contract — it must
// not block in a clock primitive and may take only locks nobody holds
// across one. Reset recycles a quiesced network (endpoints, interning
// tables, pools) for the next seed of a sweep instead of rebuilding the
// world.
//
// The network also keeps per-process send counters so experiments can
// report message complexity.
package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"xability/internal/obs"
	"xability/internal/schedule"
	"xability/internal/vclock"
	"xability/internal/xrand"
)

// ProcessID names a process on the network.
type ProcessID string

// Message is a tagged payload in flight. Payloads are shared by reference
// (the network is in-memory); senders must not mutate a payload after
// sending.
type Message struct {
	From    ProcessID
	To      ProcessID
	Type    string
	Payload any
}

// Config tunes the network.
type Config struct {
	// Seed drives the network's delay stream; runs with equal seeds and
	// equal send sequences see equal delays.
	Seed int64
	// MaxDelay bounds the per-message delay, drawn uniformly over
	// [0, MaxDelay). Zero means immediate handoff (still asynchronous:
	// delivery is a separate scheduled event).
	MaxDelay time.Duration
	// Clock supplies the network's notion of time. Nil selects a fresh
	// clock (vclock.NewVirtual); deployments whose networks share one
	// clock (the sharded runtime) pass it here.
	Clock *vclock.Virtual
	// Record, when non-nil, receives one schedule.Entry per send: the
	// message's link, virtual-time deadline, and drop/delay verdict. The
	// recorded log plus (scenario, seed) fully determines the run, and can
	// be replayed or edited — see Replay.
	Record *schedule.Log
	// Replay, when non-nil, re-executes a recorded schedule: each send is
	// matched (per link-and-type stream) against the log and uses the
	// recorded delay instead of the seeded draw, after the spec's Edit —
	// which may suppress or re-delay individual deliveries — has been
	// applied. Sends beyond the log (the run diverged under edits) fall
	// back to the seeded generator. Record and Replay compose: recording a
	// replayed run yields the effective schedule of the edited run.
	Replay *schedule.Replay
	// Metrics, when non-nil, receives per-message counters (type counts,
	// drops) and the delivery-order coverage fingerprint. Components built
	// on the network pull the registry via Network.Metrics so one Config
	// choice instruments the whole deployment. Nil costs nothing.
	Metrics *obs.Metrics
	// Trace, when non-nil, records message-delivery flow edges (and, via
	// Network.Trace, the protocol layers' request spans) into the run's
	// span recorder. Nil costs nothing.
	Trace *obs.Trace
}

// Network connects endpoints. Create with New, then Register each process.
type Network struct {
	cfg Config
	clk *vclock.Virtual

	mu           sync.Mutex
	idle         *vclock.Cond // signaled when inflight returns to zero
	byName       map[ProcessID]*Endpoint
	eps          []*Endpoint        // dense, by endpoint index (registration order)
	order        []ProcessID        // registration order, for deterministic iteration
	crashed      []bool             // by endpoint index
	sent         []int              // by endpoint index
	crashedNames map[ProcessID]bool // crashes recorded for never-registered IDs
	inflight     int
	closed       bool

	// Interned base processes (the ID up to the first '/'), by dense
	// index: link faults act on bases, so partitioning "replica-0" also
	// severs its auxiliary "/fd" and "/cons" endpoints.
	baseIdx map[ProcessID]int32
	delays  *rand.Rand // the delay stream, one draw per send

	// Link fault plane.
	delayScale float64 // storm multiplier on drawn delays (1 = calm)
	partition  []int32 // base index → partition group; nil = whole; -1 = ungrouped

	// Schedule record/replay plane (cfg.Record / cfg.Replay).
	record *schedule.Log
	replay *schedule.Cursor

	// Observability plane (cfg.Metrics / cfg.Trace); both nil-safe.
	metrics *obs.Metrics
	trace   *obs.Trace

	// Pools.
	dfree []*delivery // recycled delivery events

	reviveLeft int // endpoints awaiting re-registration after Reset
}

// New returns an empty network.
func New(cfg Config) *Network {
	n := &Network{
		byName:       make(map[ProcessID]*Endpoint),
		baseIdx:      make(map[ProcessID]int32),
		crashedNames: make(map[ProcessID]bool),
		delays:       xrand.New(0),
	}
	n.apply(cfg)
	return n
}

// apply installs a run configuration: clock, the delay stream's seed, and
// the record/replay hooks. Shared by New and Reset (which re-seeds the
// stream in place); callers guarantee no concurrent use.
func (n *Network) apply(cfg Config) {
	clk := cfg.Clock
	if clk == nil {
		clk = vclock.NewVirtual()
	}
	n.cfg = cfg
	n.clk = clk
	// The idle cond lives on the run's clock (it changes across Reset) so
	// Quiesce waits inside the virtual schedule: a sync.Cond here would
	// re-admit the waiter at an instant the schedule doesn't order — the
	// detached-wait class behind PR 4's router bug.
	n.idle = clk.NewCond(&n.mu)
	n.delayScale = 1
	n.record = cfg.Record
	n.replay = schedule.NewCursor(cfg.Replay)
	n.metrics = cfg.Metrics
	n.trace = cfg.Trace
	// Mixed, not the bare seed: the workload, the environment and the
	// fault plan draw the run seed's own sequence.
	n.delays.Seed(int64(xrand.Mix64(uint64(cfg.Seed))))
}

// baseOf strips the auxiliary-endpoint suffix from a process ID:
// "replica-0/fd" and "replica-0/cons" both belong to base "replica-0".
// Link faults act on base IDs, so partitioning a process severs all of
// its endpoints at once.
func baseOf(id ProcessID) ProcessID {
	if i := strings.IndexByte(string(id), '/'); i >= 0 {
		return id[:i]
	}
	return id
}

// ensureBaseLocked interns a base process name.
func (n *Network) ensureBaseLocked(base ProcessID) int32 {
	if b, ok := n.baseIdx[base]; ok {
		return b
	}
	b := int32(len(n.baseIdx))
	n.baseIdx[base] = b
	if n.partition != nil {
		n.partition = append(n.partition, -1)
	}
	return b
}

// Clock returns the network's clock. Components that live on the network
// (failure detectors, servers, clients) take their time from here.
func (n *Network) Clock() *vclock.Virtual { return n.clk }

// Metrics returns the run's metrics registry (nil when observability is
// off — every registry method is nil-safe, so components store the
// result and call through unconditionally). Like Clock, one Config
// choice instruments the whole deployment.
func (n *Network) Metrics() *obs.Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.metrics
}

// Trace returns the run's span recorder (nil when tracing is off).
func (n *Network) Trace() *obs.Trace {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trace
}

// Endpoint is one process's attachment to the network: an unbounded mailbox
// with blocking receive, or — once Handle installs one — a handler the
// delivery calls directly. The mailbox is a ring buffer, so steady-state
// receive traffic reuses its storage.
type Endpoint struct {
	id   ProcessID
	net  *Network
	idx  int32 // dense endpoint index
	base int32 // dense base-process index

	mu      sync.Mutex
	cond    *vclock.Cond
	q       []Message // ring buffer
	head    int
	count   int
	closed  bool
	handler func(Message) // set by Handle; deliveries call it instead of queueing
}

// push appends to the mailbox ring; callers hold e.mu.
func (e *Endpoint) push(m Message) {
	if e.count == len(e.q) {
		size := 2 * len(e.q)
		if size < 8 {
			size = 8
		}
		nq := make([]Message, size)
		for i := 0; i < e.count; i++ {
			nq[i] = e.q[(e.head+i)%len(e.q)]
		}
		e.q, e.head = nq, 0
	}
	e.q[(e.head+e.count)%len(e.q)] = m
	e.count++
}

// pop removes the oldest message; callers hold e.mu and guarantee count>0.
func (e *Endpoint) pop() Message {
	m := e.q[e.head]
	e.q[e.head] = Message{} // release the payload reference
	e.head = (e.head + 1) % len(e.q)
	e.count--
	return m
}

// clearLocked empties the ring, releasing payload references; callers hold
// e.mu.
func (e *Endpoint) clearLocked() {
	for i := 0; i < e.count; i++ {
		e.q[(e.head+i)%len(e.q)] = Message{}
	}
	e.head, e.count = 0, 0
}

// Register attaches a process and returns its endpoint. Registering the
// same ID twice panics: process identities are fixed for a run. After
// Reset, Register revives the recycled endpoints instead — the deployment
// must re-register the same IDs in the same order.
func (n *Network) Register(id ProcessID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.reviveLeft > 0 {
		i := len(n.eps) - n.reviveLeft
		ep := n.eps[i]
		if ep.id != id {
			panic(fmt.Sprintf("simnet: Reset deployment shape changed: re-registration %d is %q, was %q", i, id, ep.id))
		}
		n.reviveLeft--
		return ep
	}
	if _, dup := n.byName[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate process %q", id))
	}
	ep := &Endpoint{id: id, net: n, idx: int32(len(n.eps)), base: n.ensureBaseLocked(baseOf(id))}
	ep.cond = n.clk.NewCond(&ep.mu)
	n.byName[id] = ep
	n.eps = append(n.eps, ep)
	n.order = append(n.order, id)
	n.crashed = append(n.crashed, n.crashedNames[id])
	n.sent = append(n.sent, 0)
	return ep
}

// Crash marks a process as crashed: its outstanding and future messages are
// dropped, and its pending receives unblock with ok=false. Crash is
// idempotent (crashing a crashed process is a no-op) and safe for process
// IDs that were never registered (the crash is recorded, so a send to that
// ID — were it ever registered — stays dropped). A crash lasts until
// Restart revives the process; without one it is permanent (§5.2's
// no-recovery model is a plan that never restarts).
func (n *Network) Crash(id ProcessID) {
	n.mu.Lock()
	ep := n.byName[id]
	if ep == nil {
		n.crashedNames[id] = true
		n.mu.Unlock()
		return
	}
	if n.crashed[ep.idx] {
		n.mu.Unlock()
		return
	}
	n.crashed[ep.idx] = true
	n.mu.Unlock()
	ep.mu.Lock()
	ep.closed = true
	ep.handler = nil // the handler belongs to the incarnation that just died
	ep.clearLocked()
	ep.cond.Broadcast()
	ep.mu.Unlock()
}

// Restart revives a crashed process: sends to it flow again and a fresh
// incarnation can attach to the reopened endpoint. The endpoint comes back
// empty — messages dropped while crashed stay lost, as they would on a real
// host whose kernel buffers died with it — and with a fresh cond, so
// receivers of the dead incarnation still unwinding from Crash's wake can
// never steal the new incarnation's messages. The delay stream is
// untouched: a crash or a restart draws nothing. Restarting a process
// that never crashed (or was never registered) is a no-op returning false,
// the mirror of Crash's idempotence. Callers must ensure the dead incarnation's
// goroutines have observed the crash (drain the clock) before restarting.
func (n *Network) Restart(id ProcessID) bool {
	n.mu.Lock()
	ep := n.byName[id]
	if ep == nil {
		if !n.crashedNames[id] {
			n.mu.Unlock()
			return false
		}
		delete(n.crashedNames, id)
		n.mu.Unlock()
		return true
	}
	if !n.crashed[ep.idx] {
		n.mu.Unlock()
		return false
	}
	n.crashed[ep.idx] = false
	clk := n.clk
	n.mu.Unlock()
	ep.mu.Lock()
	ep.closed = false
	ep.clearLocked()
	ep.cond = clk.NewCond(&ep.mu)
	ep.mu.Unlock()
	return true
}

// Partition splits the network: messages between base process IDs in
// different groups are black-holed until Heal. IDs not listed in any group
// keep all of their links, so Partition([]ProcessID{a}, []ProcessID{b})
// cuts exactly the link between a and b, in both directions. Auxiliary
// endpoints ("p/fd", "p/cons") follow their base process. Calling
// Partition again replaces the previous grouping.
func (n *Network) Partition(groups ...[]ProcessID) {
	n.mu.Lock()
	for _, members := range groups {
		for _, id := range members {
			n.ensureBaseLocked(baseOf(id))
		}
	}
	nb := len(n.baseIdx)
	p := n.partition
	if cap(p) < nb {
		p = make([]int32, nb)
	}
	p = p[:nb]
	for i := range p {
		p[i] = -1
	}
	n.partition = p
	for g, members := range groups {
		for _, id := range members {
			n.partition[n.baseIdx[baseOf(id)]] = int32(g)
		}
	}
	n.mu.Unlock()
}

// Heal repairs the link fault plane: it clears the active partition.
// Messages black-holed while it was in force stay lost; only future
// traffic flows again.
func (n *Network) Heal() {
	n.mu.Lock()
	n.partition = nil
	n.mu.Unlock()
}

// SetDelayScale multiplies every subsequently drawn delay by f — the delay
// storm primitive. f of 1 restores calm; values below 1 are clamped to 1 so
// a storm can only slow the network down. The underlying random draws are
// unaffected, so a storm window does not perturb the delay sequence of the
// traffic around it.
func (n *Network) SetDelayScale(f float64) {
	if f < 1 {
		f = 1
	}
	n.mu.Lock()
	n.delayScale = f
	n.mu.Unlock()
}

// blockedLocked reports whether the link fault plane severs the link
// between two base indexes. Callers hold n.mu.
func (n *Network) blockedLocked(from, to int32) bool {
	if from == to {
		return false // a process always reaches its own endpoints
	}
	if p := n.partition; p != nil {
		gf, gt := p[from], p[to]
		if gf >= 0 && gt >= 0 && gf != gt {
			return true
		}
	}
	return false
}

// drawDelayLocked draws one message delay uniformly over [0, MaxDelay)
// from the network's stream and applies the current delay scale. Callers
// hold n.mu. The stream advances once per send, so runs with equal seeds
// and equal send sequences see equal delays.
func (n *Network) drawDelayLocked() time.Duration {
	var d time.Duration
	if n.cfg.MaxDelay > 0 {
		d = time.Duration(n.delays.Int63n(int64(n.cfg.MaxDelay)))
	}
	if n.delayScale > 1 {
		d = time.Duration(float64(d) * n.delayScale)
	}
	return d
}

// Crashed reports whether a process has crashed.
func (n *Network) Crashed(id ProcessID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep := n.byName[id]; ep != nil {
		return n.crashed[ep.idx]
	}
	return n.crashedNames[id]
}

// Processes returns the registered process IDs in registration order. The
// fixed order keeps broadcasts deterministic across runs.
func (n *Network) Processes() []ProcessID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]ProcessID(nil), n.order...)
}

// SentBy reports how many messages a process has sent.
func (n *Network) SentBy(id ProcessID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep := n.byName[id]; ep != nil {
		return n.sent[ep.idx]
	}
	return 0
}

// TotalSent reports the number of messages sent on the network.
func (n *Network) TotalSent() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, c := range n.sent {
		total += c
	}
	return total
}

// Quiesce blocks until all in-flight deliveries have settled. Useful at the
// end of a scenario before reading counters. Safe from clock goroutines and
// from external (test) goroutines alike: the wait runs on the clock's cond
// (see vclock.Virtual for who may wait), so the wake is a scheduled event
// rather than an OS scheduling race.
func (n *Network) Quiesce() {
	for {
		n.mu.Lock()
		for n.inflight > 0 {
			n.idle.Wait()
		}
		n.mu.Unlock()
		// Broadcast wakes are scheduled events now, not instant
		// runnability: a receiver whose delivery just landed may still be
		// waiting its turn in the heap. Drain the current instant so every
		// woken receiver has processed its mailbox, then re-check — the
		// processing may have put new messages in flight.
		n.clk.Drain()
		n.mu.Lock()
		settled := n.inflight == 0
		n.mu.Unlock()
		if settled {
			return
		}
	}
}

// delivery is one scheduled delivery event: a pooled vclock.Runner, so the
// per-message schedule entry costs no allocation. fromBase is carried for
// the delivery-instant link check; entry is the message's schedule-log
// index (-1 when not recording).
type delivery struct {
	n        *Network
	dst      *Endpoint
	msg      Message
	fromBase int32
	entry    int32
	class    uint8 // obs coverage class (0 when metrics are off)
	flow     int64 // obs trace flow ID (0 when tracing is off)
}

// Run implements vclock.Runner: it completes one scheduled delivery. A
// message whose link is down at the delivery instant is black-holed: a
// partition kills the traffic already in the pipe, not only future sends.
func (d *delivery) Run() {
	n := d.n
	dst, msg, fromBase, entry := d.dst, d.msg, d.fromBase, d.entry
	class, flow := d.class, d.flow
	n.mu.Lock()
	d.dst, d.msg, d.class, d.flow = nil, Message{}, 0, 0
	n.dfree = append(n.dfree, d)
	dead := n.crashed[dst.idx] || n.closed || n.blockedLocked(fromBase, dst.base)
	if n.record != nil && entry >= 0 {
		if dead {
			n.record.Resolve(int(entry), schedule.DroppedDeliver)
		} else {
			n.record.Resolve(int(entry), schedule.Delivered)
		}
	}
	if dead {
		n.metrics.Inc(obs.MsgDropped)
	} else {
		// The coverage fingerprint folds actual deliveries in execution
		// order — deliveries run one at a time on the virtual clock's
		// pump, so the fold order (and the fingerprint) is a pure
		// function of the seed.
		n.metrics.Cover(fromBase, dst.base, class)
		n.trace.FlowEnd(n.clk.Now(), string(dst.id), msg.Type, flow)
	}
	n.mu.Unlock()
	if !dead {
		dst.mu.Lock()
		h := dst.handler
		if dst.closed {
			h = nil
		} else if h == nil {
			dst.push(msg)
			dst.cond.Broadcast()
		}
		dst.mu.Unlock()
		if h != nil {
			h(msg)
		}
	}
	n.mu.Lock()
	n.inflight--
	if n.inflight == 0 {
		n.idle.Broadcast()
	}
	n.mu.Unlock()
}

// Send transmits a message. Sends from or to crashed processes are silently
// dropped (a crashed process does nothing; messages to a crashed process
// can never be received). Delivery is scheduled on the network clock after
// a seeded random delay; the delivery's heap position is fixed at send
// time. Schedule determinism therefore reduces to send-order determinism:
// each send takes the network stream's next delay, and the virtual clock
// runs one event — one goroutine, one Runner — at a time, so the order of
// sends is a function of the seed.
func (e *Endpoint) Send(to ProcessID, typ string, payload any) {
	n := e.net
	n.mu.Lock()
	if n.closed || n.crashed[e.idx] {
		n.mu.Unlock()
		return
	}
	dst, ok := n.byName[to]
	if !ok {
		n.mu.Unlock()
		panic(fmt.Sprintf("simnet: send to unknown process %q", to))
	}
	n.sent[e.idx]++
	// Classify once for the type counter (send side) and the coverage
	// fold (delivery side). The switch is a few constant-string compares;
	// with observability off this is one branch.
	var class uint8
	if n.metrics != nil || n.trace != nil {
		var ctr obs.Counter
		class, ctr = obs.ClassOf(typ)
		n.metrics.Inc(ctr)
	}
	delay := n.drawDelayLocked()
	// Replay plane: a send matched against the recorded log takes the
	// log's (possibly edited) decision instead of the seeded draw. The
	// draw above still happened, so unmatched sends of a diverged run see
	// the same delay stream a recording run would.
	suppressed := false
	if n.replay != nil {
		if dec, ok := n.replay.Next(string(e.id), string(to), typ); ok {
			if dec.Suppress {
				suppressed = true
			} else {
				delay = dec.Delay
			}
		}
	}
	blocked := n.blockedLocked(e.base, dst.base)
	entry := -1
	if n.record != nil {
		verdict := schedule.Scheduled
		switch {
		case suppressed:
			verdict = schedule.Suppressed
		case blocked:
			verdict = schedule.DroppedSend
		}
		now := n.clk.Now()
		entry = n.record.Append(schedule.Entry{
			From: string(e.id), To: string(to), Type: typ,
			SendAt: now, Deadline: now + delay, Verdict: verdict,
		})
	}
	if suppressed || blocked {
		// The message is black-holed: by the link fault plane at send
		// time, or by a replay edit (the shrinker suppressing one
		// delivery).
		n.metrics.Inc(obs.MsgDropped)
		n.mu.Unlock()
		return
	}
	// Trace a delivery edge for protocol traffic (submit/result/announce);
	// heartbeat and consensus fan-out would flood the ring without adding
	// request-lifecycle causality.
	var flow int64
	if n.trace != nil && class >= 1 && class <= 3 {
		flow = n.trace.FlowStart(n.clk.Now(), string(e.id), typ)
	}
	n.inflight++
	var d *delivery
	if k := len(n.dfree); k > 0 {
		d = n.dfree[k-1]
		n.dfree[k-1] = nil
		n.dfree = n.dfree[:k-1]
	} else {
		d = &delivery{n: n}
	}
	d.dst, d.fromBase, d.entry = dst, e.base, int32(entry)
	d.class, d.flow = class, flow
	d.msg = Message{From: e.id, To: to, Type: typ, Payload: payload}
	n.mu.Unlock()

	n.clk.AfterRunner(delay, d)
}

// Broadcast sends the message to every registered process except the
// sender. The registration-order snapshot is read without copying:
// registrations only append, so an earlier slice header stays valid.
func (e *Endpoint) Broadcast(typ string, payload any) {
	n := e.net
	n.mu.Lock()
	ids := n.order
	n.mu.Unlock()
	for _, id := range ids {
		if id != e.id {
			e.Send(id, typ, payload)
		}
	}
}

// Handle makes the endpoint event-driven: from now on every delivery calls
// fn with the message instead of queueing it for Recv, so a process whose
// reaction to a message is a state update needs no receiver goroutine.
// Messages already in the mailbox (a peer's send can land before the
// process starts) go through fn first, in arrival order. fn runs on the
// delivery — the clock's pump, so the vclock.Runner contract applies: it
// must not block in a clock primitive and may take only locks nobody
// holds across one; sending and scheduling are fine. The handler lasts for
// the incarnation: Crash removes it, and the process restarted on the
// endpoint installs its own.
func (e *Endpoint) Handle(fn func(Message)) {
	e.mu.Lock()
	for e.count > 0 && !e.closed {
		m := e.pop()
		e.mu.Unlock()
		fn(m)
		e.mu.Lock()
	}
	e.handler = fn
	e.mu.Unlock()
}

// Recv blocks until a message arrives and returns it. ok is false when the
// endpoint's process has crashed (or the network shut down), after which no
// further messages will ever arrive. Recv on an endpoint with a handler
// panics: the handler consumes every message.
func (e *Endpoint) Recv() (Message, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.handler != nil {
		panic(fmt.Sprintf("simnet: Recv on %q, which has a handler", e.id))
	}
	for e.count == 0 && !e.closed {
		e.cond.Wait()
	}
	if e.closed {
		return Message{}, false
	}
	return e.pop(), true
}

// TryRecv returns a queued message without blocking.
func (e *Endpoint) TryRecv() (Message, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.count == 0 {
		return Message{}, false
	}
	return e.pop(), true
}

// Wait blocks until the mailbox is non-empty, the endpoint is closed, or d
// has elapsed on the network clock, whichever comes first. Await loops use
// it to sleep event-driven between polls: a delivery wakes the waiter
// immediately instead of costing a full poll period.
func (e *Endpoint) Wait(d time.Duration) {
	e.mu.Lock()
	if e.count == 0 && !e.closed {
		e.cond.WaitTimeout(d)
	}
	e.mu.Unlock()
}

// Closed reports whether the endpoint can no longer receive: its process
// crashed or the network shut down. Await loops check it to avoid spinning
// on a mailbox that will never fill again.
func (e *Endpoint) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// ID returns the endpoint's process ID.
func (e *Endpoint) ID() ProcessID { return e.id }

// Clock returns the network clock this endpoint lives on.
func (e *Endpoint) Clock() *vclock.Virtual { return e.net.clk }

// Metrics returns the run's metrics registry (nil when off); components
// constructed around an endpoint pull their instrumentation from here.
func (e *Endpoint) Metrics() *obs.Metrics { return e.net.Metrics() }

// Trace returns the run's span recorder (nil when off).
func (e *Endpoint) Trace() *obs.Trace { return e.net.Trace() }

// Close shuts the whole network down, unblocking all receivers. Intended
// for the end of a run.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := n.eps
	n.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		ep.closed = true
		ep.cond.Broadcast()
		ep.mu.Unlock()
	}
}

// Reset recycles a closed network for a new run: the endpoint structures,
// interning tables, dense fault/counter state, and event pools are kept;
// the clock, seeds, and record/replay hooks are replaced per cfg. A nil
// cfg.Clock gives the network a fresh clock; a deployment whose networks
// share one clock (the sharded runtime) passes the *new* shared clock and
// resets every group in shard order.
//
// Reset refuses, and reports false without waiting, unless the old clock
// is Quiesced: no clock goroutine left and no pending event. Until then the
// old world is not inert — its goroutines and deliveries hold the
// endpoints being recycled. A run's driver winds its world down before it
// returns (stop, then vclock.Virtual.RunOut), so a refusal means a world
// that was never wound down. The subsequent
// deployment must Register the same process IDs in the same order (the
// sweep contract: one scenario shape per worker).
func (n *Network) Reset(cfg Config) bool {
	if !n.clk.Quiesced() {
		return false
	}
	n.mu.Lock()
	n.apply(cfg)
	n.closed = false
	n.inflight = 0
	for i := range n.crashed {
		n.crashed[i] = false
	}
	for i := range n.sent {
		n.sent[i] = 0
	}
	clear(n.crashedNames)
	n.partition = nil
	n.reviveLeft = len(n.eps)
	eps := n.eps
	clk := n.clk
	n.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		ep.closed = false
		ep.handler = nil
		ep.clearLocked()
		ep.cond = clk.NewCond(&ep.mu)
		ep.mu.Unlock()
	}
	return true
}
