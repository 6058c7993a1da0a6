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
type Node struct {
	self  simnet.ProcessID
	peers []simnet.ProcessID
	ep    *simnet.Endpoint
	det   fd.Detector
	clk   *vclock.Virtual
	log   *wal.Log     // nil: in-memory acceptor (no crash-recovery)
	m     *obs.Metrics // nil-safe run metrics, pulled from the endpoint

	mu        sync.Mutex
	instances map[Key]*ctInstance
	stopped   bool
	stop      chan struct{}
}

// ConsEndpoint returns the conventional process ID of p's consensus
// endpoint.
func ConsEndpoint(p simnet.ProcessID) simnet.ProcessID { return p + "/cons" }

// NewNode builds a consensus participant. ep must be registered as
// ConsEndpoint(self); peers lists all replicas (including self) in an order
// common to every node.
func NewNode(self simnet.ProcessID, ep *simnet.Endpoint, peers []simnet.ProcessID, det fd.Detector) *Node {
	return &Node{
		self:      self,
		peers:     append([]simnet.ProcessID(nil), peers...),
		ep:        ep,
		det:       det,
		clk:       ep.Clock(),
		m:         ep.Metrics(),
		instances: make(map[Key]*ctInstance),
		stop:      make(chan struct{}),
	}
}

// Start launches the receive loop on the network clock.
func (n *Node) Start() { n.clk.Go(n.recvLoop) }

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
// until a Propose or an incoming message restarts its round loops.
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
// the caller acks it. Callers must not hold inst.mu: the sync wait is a
// scheduled event, and goroutines blocked on a held mutex count as
// runnable to the clock.
func (n *Node) persistEstimate(key Key, v any, ts int) {
	if n.log == nil {
		return
	}
	n.log.Append(wal.Record{Kind: recEstimate, Key: key.ID, Space: uint8(key.Space), Round: key.Round, Aux: int32(ts), Val: v})
}

// persistDecision forces a learned decision to the log before it is
// relayed or acted on. Same locking rule as persistEstimate.
func (n *Node) persistDecision(key Key, v any) {
	if n.log == nil {
		return
	}
	n.log.Append(wal.Record{Kind: recDecision, Key: key.ID, Space: uint8(key.Space), Round: key.Round, Val: v})
}

// Stop terminates the node's goroutines. In-flight Propose calls unblock
// with the zero value.
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
	// Propose calls and round loops observe the stop promptly. Wake in key
	// order: broadcast order decides which goroutines become runnable
	// first at teardown, and map order would leak Go's per-run iteration
	// randomization into the schedule.
	sort.Slice(insts, func(i, j int) bool { return insts[i].key.less(insts[j].key) })
	for _, inst := range insts {
		inst.mu.Lock()
		inst.cond.Broadcast()
		inst.mu.Unlock()
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
	From     simnet.ProcessID
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
	// inbox buffers messages per (round, kind); the round loop consumes
	// them as its phases come due.
	inbox []ctMsg
}

func (n *Node) instance(key Key) *ctInstance {
	n.mu.Lock()
	defer n.mu.Unlock()
	inst, ok := n.instances[key]
	if !ok {
		inst = &ctInstance{key: key, ts: -1}
		inst.cond = n.clk.NewCond(&inst.mu)
		n.instances[key] = inst
	}
	return inst
}

// Object returns a handle implementing the Object interface for one
// instance key on this node.
func (n *Node) Object(key Key) Object { return &ctObject{n: n, key: key} }

type ctObject struct {
	n   *Node
	key Key
}

func (o *ctObject) Propose(v any) any { return o.n.Propose(o.key, v) }
func (o *ctObject) Read() (any, bool) { return o.n.Read(o.key) }
func (o *ctObject) String() string    { return fmt.Sprintf("ct:%s@%s", o.key, o.n.self) }

// Propose submits a value for the instance and blocks until a decision is
// known locally (or the node stops, returning nil). It attaches the calling
// goroutine to the network clock for the duration, so it is safe from any
// goroutine — protocol servers and test drivers alike.
func (n *Node) Propose(key Key, v any) any {
	n.clk.Enter()
	defer n.clk.Exit()
	inst := n.instance(key)
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
		select {
		case <-n.stop:
			inst.mu.Unlock()
			return nil
		default:
		}
		inst.cond.Wait()
	}
	d := inst.decision
	inst.mu.Unlock()
	return d
}

// Read returns the locally known decision.
func (n *Node) Read(key Key) (any, bool) {
	inst := n.instance(key)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.decision, inst.decided
}

// ensureRunning launches the round loop once; callers hold inst.mu.
func (n *Node) ensureRunning(inst *ctInstance) {
	if inst.running {
		return
	}
	inst.running = true
	n.clk.Go(func() { n.roundLoop(inst) })
}

func (n *Node) recvLoop() {
	for {
		msg, ok := n.ep.Recv()
		if !ok {
			return
		}
		cm, ok := msg.Payload.(ctMsg)
		if !ok {
			continue
		}
		cm.From = msg.From
		inst := n.instance(cm.Key)
		inst.mu.Lock()
		if cm.Kind == ctDecide {
			first := !inst.decided
			if first {
				inst.decided, inst.decision = true, cm.Value
				inst.cond.Broadcast()
			}
			inst.mu.Unlock()
			if first {
				n.m.Inc(obs.ConsDecisions)
				// Persist before relaying (a decision, once forwarded, must
				// survive this node's crash), then reliable-broadcast: relay
				// the decision once.
				n.persistDecision(cm.Key, cm.Value)
				for _, p := range n.peers {
					if p != n.self {
						n.ep.Send(ConsEndpoint(p), "cons", ctMsg{Key: cm.Key, Kind: ctDecide, Value: cm.Value})
					}
				}
			}
			continue
		}
		if inst.decided {
			// Any late message (an estimate resent across a healed
			// partition, a straggling ack) is answered with the decision,
			// so a node that missed the decide relay recovers as soon as a
			// link to any decided node comes back.
			d := inst.decision
			inst.mu.Unlock()
			n.ep.Send(msg.From, "cons", ctMsg{Key: cm.Key, Kind: ctDecide, Value: d})
			continue
		}
		inst.inbox = append(inst.inbox, cm)
		n.ensureRunning(inst) // participate passively when contacted
		inst.cond.Broadcast()
		inst.mu.Unlock()
	}
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

// take removes and returns buffered messages matching round and kind;
// callers hold inst.mu.
func (inst *ctInstance) take(round int, kind ctKind) []ctMsg {
	var got []ctMsg
	rest := inst.inbox[:0]
	for _, m := range inst.inbox {
		if m.Round == round && m.Kind == kind {
			got = append(got, m)
		} else {
			rest = append(rest, m)
		}
	}
	inst.inbox = rest
	return got
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

func (n *Node) roundLoop(inst *ctInstance) {
	majority := len(n.peers)/2 + 1
	for round := 1; ; round++ {
		select {
		case <-n.stop:
			return
		default:
		}
		coord := n.peers[round%len(n.peers)]
		n.m.Inc(obs.ConsRounds)

		// Phase 1: send the estimate to every peer, not only the
		// coordinator. The coordinator is the only consumer, but the
		// broadcast doubles as instance discovery: a node that has never
		// heard of this instance starts participating when the first
		// estimate reaches it — otherwise a proposer that coordinates the
		// round alone could never assemble a majority.
		inst.mu.Lock()
		if inst.decided {
			inst.mu.Unlock()
			return
		}
		est := ctMsg{Key: inst.key, Round: round, Kind: ctEstimate, Value: inst.estimate, TS: inst.ts, HasValue: inst.hasEst}
		inst.mu.Unlock()
		for _, p := range n.peers {
			n.sendCons(p, est)
		}

		// Phase 2 (coordinator): gather a majority of estimates including
		// at least one real value, then broadcast a proposal. Estimates are
		// deduplicated by sender — retransmission across a lossy link plane
		// may deliver the same peer's estimate more than once, and a quorum
		// must count distinct processes.
		if coord == n.self {
			var got []ctMsg
			seen := make(map[simnet.ProcessID]int)
			ok, stale := n.waitCond(inst, round, func() bool {
				for _, m := range inst.take(round, ctEstimate) {
					if j, dup := seen[m.From]; dup {
						// A retransmitted estimate can carry newer state
						// than the first: a proposer crash can orphan an
						// instance every survivor discovered passively
						// (all-⊥ estimates), and the survivors' cleaners
						// then Propose real values mid-round. Upgrading a
						// sender's entry is what lets that late real
						// estimate un-wedge the gather; keeping the stale ⊥
						// would block this phase forever.
						if (m.HasValue && !got[j].HasValue) || (m.HasValue == got[j].HasValue && m.TS > got[j].TS) {
							got[j] = m
						}
						continue
					}
					seen[m.From] = len(got)
					got = append(got, m)
				}
				real := 0
				for _, m := range got {
					if m.HasValue {
						real++
					}
				}
				return len(got) >= majority && real > 0
			}, nil, func() {
				// Stalled gathering: re-announce the round so peers cut off
				// when the original estimates went out rediscover the
				// instance once links heal. Rebuilt from the live instance
				// state, not phase 1's snapshot: a Propose that landed
				// after the round started must reach peers (and this
				// node's own gather, via the self-send) as a real value.
				for _, p := range n.peers {
					n.sendCons(p, n.currentEstimate(inst, round))
				}
			})
			if !ok {
				return
			}
			if stale {
				continue // the instance moved past this round; catch up
			}
			best := got[0]
			for _, m := range got {
				if m.HasValue && (!best.HasValue || m.TS > best.TS) {
					best = m
				}
			}
			prop := ctMsg{Key: inst.key, Round: round, Kind: ctProposal, Value: best.Value}
			for _, p := range n.peers {
				n.sendCons(p, prop)
			}
		}

		// Phase 3: adopt the coordinator's proposal or give up on it. A
		// participant whose wait stalls re-sends its estimate to the
		// coordinator: if the estimate was black-holed, the retransmission
		// is what un-wedges the coordinator's phase 2 after a heal.
		var proposal *ctMsg
		suspected := false
		ok, stale := n.waitCond(inst, round, func() bool {
			if ms := inst.take(round, ctProposal); len(ms) > 0 {
				proposal = &ms[0]
				return true
			}
			return false
		}, func() bool {
			suspected = n.det.Suspect(coord)
			return suspected
		}, func() {
			// Rebuild rather than resend phase 1's snapshot: see the
			// coordinator's resend above for why the live estimate matters.
			n.sendCons(coord, n.currentEstimate(inst, round))
		})
		if !ok {
			return
		}
		if stale {
			// Give up on this round's proposal like a nack would (the nack
			// still goes out: the coordinator's reply quorum may need it).
			n.sendCons(coord, ctMsg{Key: inst.key, Round: round, Kind: ctNack})
			continue
		}
		if proposal != nil {
			inst.mu.Lock()
			inst.estimate, inst.hasEst, inst.ts = proposal.Value, true, round
			inst.mu.Unlock()
			// Persist the adoption before acking: the ack is a promise that
			// this (estimate, ts) constrains every later round's choice, and
			// quorum intersection only holds across a restart if the promise
			// survives it.
			n.persistEstimate(inst.key, proposal.Value, round)
			n.sendCons(coord, ctMsg{Key: inst.key, Round: round, Kind: ctAck})
		} else {
			n.sendCons(coord, ctMsg{Key: inst.key, Round: round, Kind: ctNack})
		}

		// Phase 4 (coordinator): wait for a majority of replies; decide when
		// all of them are acks ([CT96]). Waiting for more than a majority
		// could block forever on crashed participants. Replies are
		// deduplicated by sender for the same reason estimates are; a stall
		// re-broadcasts the proposal in case it was black-holed.
		if coord == n.self {
			acks, nacks := 0, 0
			replied := make(map[simnet.ProcessID]bool)
			var value any
			inst.mu.Lock()
			value = inst.estimate
			prop := ctMsg{Key: inst.key, Round: round, Kind: ctProposal, Value: value}
			inst.mu.Unlock()
			ok, stale := n.waitCond(inst, round, func() bool {
				for _, m := range inst.take(round, ctAck) {
					if !replied[m.From] {
						replied[m.From] = true
						acks++
					}
				}
				for _, m := range inst.take(round, ctNack) {
					if !replied[m.From] {
						replied[m.From] = true
						nacks++
					}
				}
				return acks+nacks >= majority
			}, nil, func() {
				for _, p := range n.peers {
					n.sendCons(p, prop)
				}
			})
			if !ok {
				return
			}
			if stale {
				continue // reply quorum unreachable; the instance moved on
			}
			if nacks == 0 && acks >= majority {
				n.decide(inst, value)
				return
			}
		}

		inst.mu.Lock()
		done := inst.decided
		inst.mu.Unlock()
		if done {
			return
		}
	}
}

// waitCond blocks until ready() (checked under inst.mu) or abort() (checked
// outside the lock, re-armed every ctPoll of clock time, may be nil)
// returns true, or until the inbox shows a later-round message, returning
// with stale set: the phase cannot complete any more (see catchUp) and the
// round loop must advance. It returns ok=false when the node is stopping
// or the instance decided while waiting with abort semantics still
// pending. Waiting is event-driven: the receive loop broadcasts the
// instance condition whenever messages arrive, and Stop broadcasts it on
// shutdown. resend (may be nil) runs outside the lock after every
// ctResendAfter of clock time without progress, retransmitting the
// phase's driving message across a link plane that may have black-holed
// it.
func (n *Node) waitCond(inst *ctInstance, round int, ready func() bool, abort func() bool, resend func()) (ok, stale bool) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	start := n.clk.Now()
	last := start
	for {
		select {
		case <-n.stop:
			return false, false
		default:
		}
		if inst.decided {
			return false, false
		}
		if ready() {
			return true, false
		}
		// Later-round evidence is honored only once the phase has stalled
		// past ctCatchUpAfter: before that, an early next-round message is
		// expected reordering (the network is not FIFO), not proof that
		// this phase can no longer complete.
		if n.clk.Now()-start >= ctCatchUpAfter && inst.catchUp(round) {
			n.m.Inc(obs.ConsCatchUps)
			return true, true
		}
		if abort != nil {
			inst.mu.Unlock()
			aborted := abort()
			inst.mu.Lock()
			if aborted {
				return true, false
			}
		}
		// Always a timed wait: even with nothing to resend, a
		// pending-but-gated catch-up needs the gate re-checked.
		if abort != nil {
			inst.cond.WaitTimeout(ctPoll)
		} else {
			inst.cond.WaitTimeout(ctResendAfter)
		}
		if resend != nil {
			if now := n.clk.Now(); now-last >= ctResendAfter {
				last = now
				n.m.Inc(obs.ConsRetransmits)
				inst.mu.Unlock()
				resend()
				inst.mu.Lock()
			}
		}
	}
}

func (n *Node) decide(inst *ctInstance, v any) {
	inst.mu.Lock()
	first := !inst.decided
	if first {
		inst.decided, inst.decision = true, v
		inst.cond.Broadcast()
	}
	inst.mu.Unlock()
	if first {
		n.m.Inc(obs.ConsDecisions)
		// Persist before announcing: a coordinator that told anyone and
		// then forgot could coordinate a later round to a different value.
		n.persistDecision(inst.key, v)
	}
	for _, p := range n.peers {
		if p != n.self {
			n.sendCons(p, ctMsg{Key: inst.key, Kind: ctDecide, Value: v})
		}
	}
}

// currentEstimate builds a round-r estimate message from the instance's
// live state. Retransmissions must use this, not the message snapshotted
// when the round began: a Propose can seed a real estimate after a round
// loop that started passively (⊥) is already mid-round, and only a rebuilt
// message carries it. Callers must not hold inst.mu.
func (n *Node) currentEstimate(inst *ctInstance, round int) ctMsg {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return ctMsg{Key: inst.key, Round: round, Kind: ctEstimate, Value: inst.estimate, TS: inst.ts, HasValue: inst.hasEst}
}

func (n *Node) sendCons(to simnet.ProcessID, m ctMsg) {
	if to == n.self {
		// Local delivery without the network: enqueue directly. (Nobody
		// self-sends a decide: decide() and the relay both skip self.)
		inst := n.instance(m.Key)
		m.From = n.self
		inst.mu.Lock()
		inst.inbox = append(inst.inbox, m)
		inst.cond.Broadcast()
		inst.mu.Unlock()
		return
	}
	n.ep.Send(ConsEndpoint(to), "cons", m)
}
