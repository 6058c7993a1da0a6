package consensus

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xability/internal/fd"
	"xability/internal/obs"
	"xability/internal/simnet"
	"xability/internal/vclock"
	"xability/internal/wal"
)

// Node is one replica's participant in a message-passing consensus service
// in the style of Chandra–Toueg's ◇S rotating-coordinator algorithm [CT96].
// A set of n Nodes (one per replica, all listing the same peers in the same
// order) runs any number of independent consensus instances, multiplexed by
// instance key, tolerating f < n/2 crashes and arbitrary false suspicions
// from the supplied failure detector.
//
// Per instance and round r, the coordinator is peers[r mod n]:
//
//  1. every participant sends its (estimate, ts) to the coordinator;
//  2. the coordinator gathers a majority of estimates, adopts a non-⊥
//     estimate with maximal ts, and broadcasts it as the round's proposal;
//  3. each participant waits for the proposal or for its detector to
//     suspect the coordinator; it acks and adopts the proposal (ts := r),
//     or nacks and moves to the next round;
//  4. a coordinator that gathers a majority of acks decides and reliably
//     broadcasts the decision; receivers re-broadcast once and decide.
//
// Agreement follows from quorum intersection on (estimate, ts) as in
// [CT96]; termination follows from eventual accuracy of the detector
// (◇P implies ◇S) plus reliable channels.
//
// Processes that never propose still participate: they answer with a ⊥
// estimate that the coordinator ignores when choosing a value, so a single
// proposer suffices for a decision.
//
// A Node has no goroutine of its own. Its receive side is an endpoint
// handler that queues each message for a drain (ctDrain), and each
// instance's round loop is a step machine (ctRound); both run on the
// clock's pump, waiting as Runners on the instance's condition and
// persisting through WAL continuations, so a message costs no goroutine
// wake-up. Propose blocks its caller, as the Object interface requires.
type Node struct {
	self  simnet.ProcessID
	peers []simnet.ProcessID
	dests []simnet.ProcessID // ConsEndpoint of each peer, named once
	ep    *simnet.Endpoint
	det   fd.Detector
	clk   *vclock.Virtual
	log   *wal.Log     // nil: in-memory acceptor (no crash-recovery)
	m     *obs.Metrics // nil-safe run metrics, pulled from the endpoint

	mu        sync.Mutex
	instances map[Key]*ctInstance
	stopped   bool
	stop      chan struct{}

	drain ctDrain // the receive side, on the pump (see onMessage)
}

// ConsEndpoint returns the conventional process ID of p's consensus
// endpoint.
func ConsEndpoint(p simnet.ProcessID) simnet.ProcessID { return p + "/cons" }

// NewNode builds a consensus participant. ep must be registered as
// ConsEndpoint(self); peers lists all replicas (including self) in an order
// common to every node.
func NewNode(self simnet.ProcessID, ep *simnet.Endpoint, peers []simnet.ProcessID, det fd.Detector) *Node {
	n := &Node{
		self:      self,
		peers:     append([]simnet.ProcessID(nil), peers...),
		dests:     make([]simnet.ProcessID, len(peers)),
		ep:        ep,
		det:       det,
		clk:       ep.Clock(),
		m:         ep.Metrics(),
		instances: make(map[Key]*ctInstance),
		stop:      make(chan struct{}),
	}
	for i, p := range peers {
		n.dests[i] = ConsEndpoint(p)
	}
	n.drain.n = n
	return n
}

// Start installs the node's receive handler on its endpoint (see
// onMessage); from then on the node reacts to every delivery.
func (n *Node) Start() { n.ep.Handle(n.onMessage) }

// WAL record kinds (see DESIGN.md §9): an acceptor's promise is exactly
// the (estimate, ts) pairs it acked and the decisions it learned.
const (
	recEstimate = "est" // Key/Space/Round: instance; Aux: adoption ts; Val: estimate
	recDecision = "dec" // Key/Space/Round: instance; Val: decision
)

// SetLog makes the node durable: acceptor state — the (estimate, ts) pair
// adopted before each ack, and every learned decision — is forced to l
// before the message that reveals it is sent. Quorum intersection on
// acked estimates is what carries agreement across a crash; an acceptor
// that acked in memory only and restarted amnesiac could let two rounds
// decide differently. Call before Start. The log's compactor is
// installed here too: the acceptor's snapshot is its promise set, one
// record per instance.
func (n *Node) SetLog(l *wal.Log) {
	n.log = l
	if l != nil {
		l.SetCompactor(ctCompact)
	}
}

// ctCompact is the acceptor's snapshot fold (wal.Compactor): the durable
// state an acceptor must carry is, per instance, the last adopted
// (estimate, ts) pair — or just the decision once one is learned, since
// a decided instance answers every later message with the decision and
// never consults its estimate again. Replaying the fold's output yields
// exactly the state of replaying the full prefix: est/dec records are
// last-writer-wins per instance.
func ctCompact(prefix []wal.Record) []wal.Record {
	type ik struct {
		space uint8
		id    string
		round int32
	}
	type lastIdx struct{ est, dec int }
	last := make(map[ik]lastIdx, len(prefix))
	for i, r := range prefix {
		k := ik{r.Space, r.Key, r.Round}
		s, ok := last[k]
		if !ok {
			s = lastIdx{est: -1, dec: -1}
		}
		switch r.Kind {
		case recEstimate:
			s.est = i
		case recDecision:
			s.dec = i
		default:
			continue // snapshot markers and foreign kinds fold away
		}
		last[k] = s
	}
	keep := make([]bool, len(prefix))
	// Map-order walk is safe here: it only sets order-independent keep
	// flags; output order comes from the prefix scan below.
	for _, s := range last {
		if s.dec >= 0 {
			keep[s.dec] = true
		} else if s.est >= 0 {
			keep[s.est] = true
		}
	}
	out := make([]wal.Record, 0, len(last))
	for i, r := range prefix {
		if keep[i] {
			out = append(out, r)
		}
	}
	return out
}

// Recover rebuilds acceptor state from the node's log: the instance map
// is repopulated with each instance's last adopted (estimate, ts) and any
// learned decision. Call after SetLog and before Start. A recovered node
// participates passively — it answers estimates and relays decisions —
// until a Propose or an incoming message arms its round machines.
func (n *Node) Recover() {
	if n.log == nil {
		return
	}
	replayed := int64(0)
	n.log.Replay(func(r wal.Record) {
		if r.Kind != recEstimate && r.Kind != recDecision {
			return // snapshot markers carry no acceptor state
		}
		replayed++
		key := Key{Space: Space(r.Space), ID: r.Key, Round: r.Round}
		inst := n.instance(key)
		inst.mu.Lock()
		switch r.Kind {
		case recEstimate:
			// Replay, not new state: the pair was persisted before its ack
			// went out, and later records overwrite earlier ones just as
			// later adoptions did in the crashed incarnation.
			inst.estimate, inst.hasEst, inst.ts = r.Val, true, int(r.Aux) //xvet:ok durablewrite recovery replays the log; re-persisting here would double every record
		case recDecision:
			inst.decided, inst.decision = true, r.Val //xvet:ok durablewrite recovery replays the log; re-persisting here would double every record
		}
		inst.mu.Unlock()
	})
	n.m.Add(obs.WALReplayed, replayed)
}

// persistEstimate forces an adopted (estimate, ts) pair to the log before
// the caller acks it, then runs then: inline without a log or at zero
// tariff, otherwise on the pump once the sync completes (wal.AppendThen,
// with k the caller's continuation). Callers run on the pump and must not
// hold inst.mu: then may take it.
func (n *Node) persistEstimate(key Key, v any, ts int, k *wal.Sync, then vclock.Runner) {
	if n.log == nil {
		then.Run()
		return
	}
	n.log.AppendThen(wal.Record{Kind: recEstimate, Key: key.ID, Space: uint8(key.Space), Round: key.Round, Aux: int32(ts), Val: v}, k, then)
}

// persistDecision forces a learned decision to the log before it is
// relayed or acted on, then runs then. Same rules as persistEstimate.
func (n *Node) persistDecision(key Key, v any, k *wal.Sync, then vclock.Runner) {
	if n.log == nil {
		then.Run()
		return
	}
	n.log.AppendThen(wal.Record{Kind: recDecision, Key: key.ID, Space: uint8(key.Space), Round: key.Round, Val: v}, k, then)
}

// Stop halts the node: every round machine ends at its next step, and
// in-flight Propose calls unblock with the zero value. The receive handler
// keeps answering until the endpoint closes.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	close(n.stop)
	insts := make([]*ctInstance, 0, len(n.instances))
	for _, inst := range n.instances {
		insts = append(insts, inst)
	}
	n.mu.Unlock()
	// Waits on instance conditions are event-driven; wake them so blocked
	// Propose calls and round machines observe the stop promptly. Wake in
	// key order: broadcast order decides which waiters run first at
	// teardown, and map order would leak Go's per-run iteration
	// randomization into the schedule. A broadcast only schedules wakes,
	// so none runs a waiter that needs the lock held here.
	sort.Slice(insts, func(i, j int) bool { return insts[i].key.less(insts[j].key) })
	for _, inst := range insts {
		inst.mu.Lock()
		inst.cond.Broadcast()
		inst.mu.Unlock()
	}
}

// stopping reports whether Stop has been called.
func (n *Node) stopping() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

type ctKind int

const (
	ctEstimate ctKind = iota
	ctProposal
	ctAck
	ctNack
	ctDecide
)

type ctMsg struct {
	Key      Key
	Round    int
	Kind     ctKind
	Value    any
	TS       int
	HasValue bool
	From     int // the sender's peer index, set on receipt
}

type ctInstance struct {
	mu   sync.Mutex
	cond *vclock.Cond
	key  Key
	// The acceptor's durable state (xvet:durable): writes must be paired
	// with a WAL persist — the durablewrite analyzer flags any assignment
	// in a function that never persists.
	estimate any  //xvet:durable
	hasEst   bool //xvet:durable
	ts       int  //xvet:durable
	decided  bool //xvet:durable
	decision any  //xvet:durable
	running  bool
	// inbox buffers messages per (round, kind); the round machine consumes
	// them as its phases come due.
	inbox []ctMsg
	// decideBox is the decision as a boxed decide message, built once (see
	// decideMsg) for the announcement, the relay and every late answer.
	decideBox any
	obj       ctObject // the instance's Object handle
	round     ctRound  // the round loop, armed by ensureRunning
}

func (n *Node) instance(key Key) *ctInstance {
	n.mu.Lock()
	defer n.mu.Unlock()
	inst, ok := n.instances[key]
	if !ok {
		inst = &ctInstance{key: key, ts: -1}
		inst.cond = n.clk.NewCond(&inst.mu)
		inst.obj = ctObject{n: n, inst: inst}
		inst.round = ctRound{n: n, inst: inst, round: 1}
		n.instances[key] = inst
	}
	return inst
}

// decideMsg returns the instance's decision as a decide message, boxed
// on first use; callers hold inst.mu and have seen inst.decided.
func (inst *ctInstance) decideMsg() any {
	if inst.decideBox == nil {
		inst.decideBox = ctMsg{Key: inst.key, Kind: ctDecide, Value: inst.decision}
	}
	return inst.decideBox
}

// Object returns a handle implementing the Object interface for one
// instance key on this node. The handle is part of the instance, created
// here if this node has not heard of it yet, so its reads and proposals
// skip the node's instance map.
func (n *Node) Object(key Key) Object { return &n.instance(key).obj }

type ctObject struct {
	n    *Node
	inst *ctInstance
}

func (o *ctObject) Propose(v any) any { return o.n.propose(o.inst, v) }
func (o *ctObject) Read() (any, bool) { return o.inst.read() }
func (o *ctObject) String() string    { return fmt.Sprintf("ct:%s@%s", o.inst.key, o.n.self) }

// Propose submits a value for the instance and blocks until a decision is
// known locally (or the node stops, returning nil). It waits on the
// network clock, so it is safe from protocol servers and test drivers
// alike (see vclock.Virtual).
func (n *Node) Propose(key Key, v any) any { return n.propose(n.instance(key), v) }

func (n *Node) propose(inst *ctInstance, v any) any {
	inst.mu.Lock()
	if inst.decided {
		d := inst.decision
		inst.mu.Unlock()
		return d
	}
	if !inst.hasEst {
		// The proposer's own initial estimate (ts 0) constrains nothing —
		// no ack has gone out for it — so it needs no persistence: a
		// restarted proposer simply re-proposes.
		inst.estimate, inst.hasEst, inst.ts = v, true, 0 //xvet:ok durablewrite ts-0 initial estimate: never acked, constrains no quorum, safe to lose
	}
	n.ensureRunning(inst)
	for !inst.decided {
		if n.stopping() {
			inst.mu.Unlock()
			return nil
		}
		inst.cond.Wait()
	}
	d := inst.decision
	inst.mu.Unlock()
	return d
}

// Read returns the locally known decision.
func (n *Node) Read(key Key) (any, bool) { return n.instance(key).read() }

func (inst *ctInstance) read() (any, bool) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.decision, inst.decided
}

// ensureRunning arms the round machine once, at the current instant;
// callers hold inst.mu.
func (n *Node) ensureRunning(inst *ctInstance) {
	if inst.running {
		return
	}
	inst.running = true
	n.clk.AfterRunner(0, &inst.round)
}

// onMessage is the endpoint handler. It queues a consensus message from a
// peer and, unless a drain is pending — armed, or suspended in a
// decision's persist — arms one at the current instant. Every delivery
// arms it, whatever it carries: the drain's event is the delivery's
// hand-off, one per wake of the node's receive side.
func (n *Node) onMessage(msg simnet.Message) {
	d := &n.drain
	if cm, ok := msg.Payload.(ctMsg); ok {
		if cm.From = n.peerIndex(msg.From); cm.From >= 0 {
			d.q = append(d.q, cm)
		}
	}
	if !d.pending {
		d.pending = true
		n.clk.AfterRunner(0, d)
	}
}

// peerIndex returns the index of the peer whose consensus endpoint is ep,
// or -1.
func (n *Node) peerIndex(ep simnet.ProcessID) int {
	for i, d := range n.dests {
		if d == ep {
			return i
		}
	}
	return -1
}

// ctDrain processes the node's received messages in arrival order, on the
// pump. Across a decision's persist it suspends — later deliveries only
// queue — and resumes in the WAL continuation, relaying the decision
// first.
type ctDrain struct {
	n       *Node
	q       []ctMsg
	next    int         // q[next:] is still to process
	pending bool        // armed, running, or suspended in a persist
	relay   *ctInstance // the instance whose decision is being persisted
	sync    wal.Sync
}

// Run implements vclock.Runner.
func (d *ctDrain) Run() {
	n := d.n
	if inst := d.relay; inst != nil {
		// Persisted; now reliable-broadcast: relay the decision once.
		d.relay = nil
		inst.mu.Lock()
		box := inst.decideMsg()
		inst.mu.Unlock()
		n.sendOthers(box)
	}
	for d.next < len(d.q) {
		if n.ep.Closed() {
			// The process crashed or the network shut down: the queue is
			// lost with the mailbox.
			break
		}
		cm := d.q[d.next]
		d.q[d.next] = ctMsg{}
		d.next++
		if n.receive(cm) {
			return // suspended; the continuation runs Run again
		}
	}
	clear(d.q[d.next:])
	d.q, d.next, d.pending = d.q[:0], 0, false
}

// receive handles one message from a peer. It reports true when it
// suspended the drain in a decision's persist.
func (n *Node) receive(cm ctMsg) bool {
	inst := n.instance(cm.Key)
	inst.mu.Lock()
	if cm.Kind == ctDecide {
		first := !inst.decided
		if first {
			inst.decided, inst.decision = true, cm.Value
			inst.cond.Broadcast()
		}
		inst.mu.Unlock()
		if !first {
			return false
		}
		n.m.Inc(obs.ConsDecisions)
		// Persist before relaying: a decision, once forwarded, must
		// survive this node's crash.
		n.drain.relay = inst
		n.persistDecision(inst.key, cm.Value, &n.drain.sync, &n.drain)
		return true
	}
	if inst.decided {
		// Any late message (an estimate resent across a healed partition,
		// a straggling ack) is answered with the decision, so a node that
		// missed the decide relay recovers as soon as a link to any
		// decided node comes back.
		box := inst.decideMsg()
		inst.mu.Unlock()
		n.ep.Send(n.dests[cm.From], "cons", box)
		return false
	}
	inst.inbox = append(inst.inbox, cm)
	n.ensureRunning(inst) // participate passively when contacted
	inst.cond.Broadcast()
	inst.mu.Unlock()
	return false
}

// catchUp reports whether the inbox holds a message of a later round —
// evidence that a quorum already moved past this one (a peer only reaches
// round r+1 after round r's coordinator phase resolved or was given up
// on). A node stalled in an old round can never assemble that round's
// quorum once its peers have moved on, because peers retransmit only
// their current phase's messages: without a catch-up rule, a partition
// window that eats one round's traffic wedges the instance forever even
// after the heal (found by the seeded random fault generator; pinned by
// TestCatchUpAfterPartitionDesync). Callers hold inst.mu.
func (inst *ctInstance) catchUp(round int) bool {
	for _, m := range inst.inbox {
		if m.Round > round {
			return true
		}
	}
	return false
}

// ctPoll bounds how stale a coordinator-suspicion check may get while a
// participant waits for a proposal. The wait itself is event-driven (new
// messages broadcast the instance condition); the timeout only re-arms the
// detector probe, and on the virtual clock it costs no wall time.
const ctPoll = 500 * time.Microsecond

// ctResendAfter is how long a phase may stall before retransmitting the
// message that drives it. Channels between correct connected processes are
// reliable, so in fault-free runs nothing is ever resent; retransmission
// only matters when the link plane black-holes traffic (partitions, dropped
// links) — it is what lets a stalled instance resume once the network
// heals.
const ctResendAfter = 4 * time.Millisecond

// ctCatchUpAfter is how long a phase must have stalled before later-round
// inbox evidence makes it give up (see catchUp). The grace period matters
// because the network is not FIFO: a participant acks round r and
// immediately broadcasts its round r+1 estimate, and the estimate can
// overtake the ack in delivery order. A coordinator that treated the early
// r+1 estimate as "the quorum moved on" would abandon a round it was about
// to win — on channels the fault plane has not touched, the ack is still
// en route and arrives within the network's delay bound, far inside this
// window. Only when the phase has genuinely stalled (the driving message
// was black-holed, retransmission has had a chance) is the later-round
// evidence trusted.
const ctCatchUpAfter = 2 * ctResendAfter

// ctStep is where a round machine stands.
type ctStep uint8

const (
	stStart    ctStep = iota // top of a round: send the estimate
	stGather                 // coordinator: waiting for a majority of estimates
	stAwait                  // waiting for the proposal or a suspicion
	stAck                    // the adopted estimate is durable: ack it
	stReplies                // coordinator: waiting for a majority of replies
	stAnnounce               // the decision is durable: send it
	stDone
)

// ctRound is an instance's round loop as a step machine on the clock's
// pump. Each phase wait is a Runner cond wait on the instance
// (vclock.Cond.WaitRunner), with a ctPoll or ctResendAfter timeout, and
// each persist a WAL continuation that runs the machine again, so a wait
// or a persist costs one event and no goroutine (DESIGN §6 item 2).
type ctRound struct {
	n     *Node
	inst  *ctInstance
	step  ctStep
	round int
	ci    int // the round's coordinator, as a peer index
	// The current phase wait's start, for the catch-up gate, and its last
	// retransmission.
	start, last time.Duration

	// Phase scratch, reused round after round.
	buf         []ctMsg // what one check pulled from the inbox
	got         []ctMsg // phase 2: one estimate per sender
	seen        []int   // per peer: phase 2, its index in got; phase 4, ≥ 0 once it replied; else -1
	acks, nacks int
	value       any // phase 3: the adopted proposal; phase 4: the proposed value
	sync        wal.Sync
}

// Run implements vclock.Runner: the arm, a wake from a phase wait, or a
// persist's continuation.
func (m *ctRound) Run() {
	if m.waiting() {
		m.resendIfStalled() // woken: retransmission first, then the checks
	}
	for {
		var more bool
		switch m.step {
		case stStart:
			more = m.startRound()
		case stGather, stAwait, stReplies:
			more = m.check()
		case stAck:
			m.n.sendCons(m.inst, m.ci, ctMsg{Key: m.inst.key, Round: m.round, Kind: ctAck})
			m.replied()
			more = true
		case stAnnounce:
			m.inst.mu.Lock()
			box := m.inst.decideMsg()
			m.inst.mu.Unlock()
			m.n.sendOthers(box)
			m.step = stDone
		}
		if !more {
			return
		}
	}
}

func (m *ctRound) waiting() bool {
	return m.step == stGather || m.step == stAwait || m.step == stReplies
}

func (m *ctRound) coordinates() bool { return m.n.peers[m.ci] == m.n.self }

func (m *ctRound) majority() int { return len(m.n.peers)/2 + 1 }

// startRound runs phase 1: send the estimate to every peer, not only the
// coordinator. The coordinator is the only consumer, but the broadcast
// doubles as instance discovery: a node that has never heard of this
// instance starts participating when the first estimate reaches it —
// otherwise a proposer that coordinates the round alone could never
// assemble a majority.
func (m *ctRound) startRound() bool {
	n, inst := m.n, m.inst
	if n.stopping() {
		m.step = stDone
		return false
	}
	m.ci = m.round % len(n.peers)
	n.m.Inc(obs.ConsRounds)
	inst.mu.Lock()
	if inst.decided {
		inst.mu.Unlock()
		m.step = stDone
		return false
	}
	est := ctMsg{Key: inst.key, Round: m.round, Kind: ctEstimate, Value: inst.estimate, TS: inst.ts, HasValue: inst.hasEst}
	inst.mu.Unlock()
	n.sendAll(inst, est)
	if m.seen == nil {
		m.seen = make([]int, len(n.peers))
	}
	if m.coordinates() {
		m.got = m.got[:0]
		m.wait(stGather)
	} else {
		m.wait(stAwait)
	}
	return true
}

// wait enters a phase wait: check runs its first pass at once.
func (m *ctRound) wait(step ctStep) {
	m.step = step
	m.start = m.n.clk.Now()
	m.last = m.start
	for i := range m.seen {
		m.seen[i] = -1
	}
}

// check is one pass of a phase wait. The phase ends when its condition
// holds; the wait ends the machine when the node stops or the instance
// decided meanwhile; later-round inbox evidence ends the phase as stale
// (see catchUp) once it has stalled past ctCatchUpAfter — before that, an
// early next-round message is expected reordering (the network is not
// FIFO), not proof that this phase can no longer complete. Otherwise the
// machine waits on the instance's condition, which every arriving message
// broadcasts and Stop broadcasts at shutdown. The wait is always timed:
// even with nothing to resend, a pending-but-gated catch-up needs the gate
// re-checked. check reports whether the machine moved on.
func (m *ctRound) check() bool {
	n, inst := m.n, m.inst
	inst.mu.Lock()
	if n.stopping() || inst.decided {
		inst.mu.Unlock()
		m.step = stDone
		return false
	}
	if m.ready() {
		inst.mu.Unlock()
		return m.phaseDone()
	}
	if n.clk.Now()-m.start >= ctCatchUpAfter && inst.catchUp(m.round) {
		n.m.Inc(obs.ConsCatchUps)
		inst.mu.Unlock()
		if m.step == stAwait {
			// Give up on this round's proposal like a nack would (the nack
			// still goes out: the coordinator's reply quorum may need it).
			n.sendCons(inst, m.ci, ctMsg{Key: inst.key, Round: m.round, Kind: ctNack})
		}
		m.round++ // the instance moved past this round; catch up
		m.step = stStart
		return true
	}
	if m.step != stAwait {
		inst.cond.WaitRunner(ctResendAfter, m)
		inst.mu.Unlock()
		return false
	}
	inst.mu.Unlock()
	if n.det.Suspect(n.peers[m.ci]) {
		n.sendCons(inst, m.ci, ctMsg{Key: inst.key, Round: m.round, Kind: ctNack})
		m.replied()
		return true
	}
	inst.mu.Lock()
	inst.cond.WaitRunner(ctPoll, m)
	inst.mu.Unlock()
	return false
}

// ready consumes the phase's messages from the inbox and reports whether
// the phase's condition holds; callers hold inst.mu.
func (m *ctRound) ready() bool {
	switch m.step {
	case stGather:
		// Phase 2 (coordinator): a majority of estimates including at
		// least one real value. Estimates are deduplicated by sender —
		// retransmission across a lossy link plane may deliver the same
		// peer's estimate more than once, and a quorum must count distinct
		// processes.
		for _, x := range m.pull(ctEstimate) {
			if j := m.seen[x.From]; j >= 0 {
				// A retransmitted estimate can carry newer state than the
				// first: a proposer crash can orphan an instance every
				// survivor discovered passively (all-⊥ estimates), and the
				// survivors' cleaners then Propose real values mid-round.
				// Upgrading a sender's entry is what lets that late real
				// estimate un-wedge the gather; keeping the stale ⊥ would
				// block this phase forever.
				if (x.HasValue && !m.got[j].HasValue) || (x.HasValue == m.got[j].HasValue && x.TS > m.got[j].TS) {
					m.got[j] = x
				}
				continue
			}
			m.seen[x.From] = len(m.got)
			m.got = append(m.got, x)
		}
		real := 0
		for _, x := range m.got {
			if x.HasValue {
				real++
			}
		}
		return len(m.got) >= m.majority() && real > 0
	case stAwait:
		// Phase 3: the coordinator's proposal.
		if ps := m.pull(ctProposal); len(ps) > 0 {
			m.value = ps[0].Value
			return true
		}
		return false
	default:
		// Phase 4 (coordinator): a majority of replies, deduplicated by
		// sender for the same reason estimates are.
		for _, x := range m.pull(ctAck) {
			if m.seen[x.From] < 0 {
				m.seen[x.From] = 0
				m.acks++
			}
		}
		for _, x := range m.pull(ctNack) {
			if m.seen[x.From] < 0 {
				m.seen[x.From] = 0
				m.nacks++
			}
		}
		return m.acks+m.nacks >= m.majority()
	}
}

// pull moves the inbox's messages of this round and the given kind into
// the machine's scratch, in arrival order; callers hold inst.mu.
func (m *ctRound) pull(kind ctKind) []ctMsg {
	inst := m.inst
	m.buf = m.buf[:0]
	rest := inst.inbox[:0]
	for _, x := range inst.inbox {
		if x.Round == m.round && x.Kind == kind {
			m.buf = append(m.buf, x)
		} else {
			rest = append(rest, x)
		}
	}
	clear(inst.inbox[len(rest):])
	inst.inbox = rest
	return m.buf
}

// phaseDone moves on from a phase whose condition holds, and reports
// whether the machine runs on (false: suspended in a persist).
func (m *ctRound) phaseDone() bool {
	n, inst := m.n, m.inst
	switch m.step {
	case stGather:
		// Adopt a non-⊥ estimate with maximal ts and propose it.
		best := m.got[0]
		for _, x := range m.got {
			if x.HasValue && (!best.HasValue || x.TS > best.TS) {
				best = x
			}
		}
		n.sendAll(inst, ctMsg{Key: inst.key, Round: m.round, Kind: ctProposal, Value: best.Value})
		m.wait(stAwait)
		return true
	case stAwait:
		return m.adopt()
	default:
		// Decide when every reply of the majority is an ack ([CT96]).
		// Waiting for more than a majority could block forever on crashed
		// participants.
		if m.nacks == 0 && m.acks >= m.majority() {
			return m.decide()
		}
		m.nextRound()
		return true
	}
}

// adopt takes the coordinator's proposal as the estimate (ts := round) and
// persists the adoption before the ack goes out (stAck): the ack is a
// promise that this (estimate, ts) constrains every later round's choice,
// and quorum intersection only holds across a restart if the promise
// survives it.
func (m *ctRound) adopt() bool {
	inst := m.inst
	inst.mu.Lock()
	inst.estimate, inst.hasEst, inst.ts = m.value, true, m.round
	inst.mu.Unlock()
	m.step = stAck
	m.n.persistEstimate(inst.key, m.value, m.round, &m.sync, m)
	return false
}

// replied ends phase 3 once the ack or nack is out: the coordinator goes
// on to gather the replies, re-broadcasting its proposal when the wait
// stalls in case it was black-holed; a participant goes on to the next
// round.
func (m *ctRound) replied() {
	if !m.coordinates() {
		m.nextRound()
		return
	}
	m.acks, m.nacks = 0, 0
	m.inst.mu.Lock()
	m.value = m.inst.estimate
	m.inst.mu.Unlock()
	m.wait(stReplies)
}

// nextRound starts the next round unless the instance decided meanwhile.
func (m *ctRound) nextRound() {
	m.inst.mu.Lock()
	done := m.inst.decided
	m.inst.mu.Unlock()
	if done {
		m.step = stDone
		return
	}
	m.round++
	m.step = stStart
}

// decide records the coordinator's decision and persists it before
// announcing it (stAnnounce): a coordinator that told anyone and then
// forgot could coordinate a later round to a different value.
func (m *ctRound) decide() bool {
	n, inst, v := m.n, m.inst, m.value
	inst.mu.Lock()
	first := !inst.decided
	if first {
		inst.decided, inst.decision = true, v
		inst.cond.Broadcast()
	}
	inst.mu.Unlock()
	m.step = stAnnounce
	if !first {
		return true
	}
	n.m.Inc(obs.ConsDecisions)
	n.persistDecision(inst.key, v, &m.sync, m)
	return false
}

// resendIfStalled retransmits the phase's driving message after every
// ctResendAfter of clock time without progress, across a link plane that
// may have black-holed it. The estimate is rebuilt from the instance's
// live state, not the one the round started with: a Propose that landed
// after the round started must reach peers (and a coordinator's own
// gather, via the self-send) as a real value. A participant re-sends its
// estimate to the coordinator, which is what un-wedges the coordinator's
// phase 2 after a heal; the coordinator re-announces the round so peers
// cut off when the original estimates went out rediscover the instance,
// or re-broadcasts its proposal.
func (m *ctRound) resendIfStalled() {
	n, inst := m.n, m.inst
	now := n.clk.Now()
	if now-m.last < ctResendAfter {
		return
	}
	m.last = now
	n.m.Inc(obs.ConsRetransmits)
	switch m.step {
	case stGather:
		n.sendAll(inst, n.currentEstimate(inst, m.round))
	case stAwait:
		n.sendCons(inst, m.ci, n.currentEstimate(inst, m.round))
	default:
		n.sendAll(inst, ctMsg{Key: inst.key, Round: m.round, Kind: ctProposal, Value: m.value})
	}
}

// currentEstimate builds a round-r estimate message from the instance's
// live state. Callers must not hold inst.mu.
func (n *Node) currentEstimate(inst *ctInstance, round int) ctMsg {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return ctMsg{Key: inst.key, Round: round, Kind: ctEstimate, Value: inst.estimate, TS: inst.ts, HasValue: inst.hasEst}
}

// sendCons sends m, a message of inst, to peers[i].
func (n *Node) sendCons(inst *ctInstance, i int, m ctMsg) {
	if n.peers[i] == n.self {
		n.deliverLocal(inst, i, m)
		return
	}
	n.ep.Send(n.dests[i], "cons", m)
}

// sendAll sends m, a message of inst, to every peer in peer order, boxing
// it once for the network.
func (n *Node) sendAll(inst *ctInstance, m ctMsg) {
	var box any
	for i, p := range n.peers {
		if p == n.self {
			n.deliverLocal(inst, i, m)
			continue
		}
		if box == nil {
			box = m
		}
		n.ep.Send(n.dests[i], "cons", box)
	}
}

// sendOthers sends a boxed message to every peer but this node. (Nobody
// self-sends a decide: the announcement and the relay both skip self.)
func (n *Node) sendOthers(box any) {
	for i, p := range n.peers {
		if p != n.self {
			n.ep.Send(n.dests[i], "cons", box)
		}
	}
}

// deliverLocal enqueues m, from this node as peer i, on its own instance
// without the network.
func (n *Node) deliverLocal(inst *ctInstance, i int, m ctMsg) {
	m.From = i
	inst.mu.Lock()
	inst.inbox = append(inst.inbox, m)
	inst.cond.Broadcast()
	inst.mu.Unlock()
}
