// Package core implements the paper's general asynchronous replication
// algorithm (§5, Figures 5–7): a client stub whose submit is idempotent and
// eventually successful (R1, R2), and a set of server replicas that execute
// non-deterministic, side-effecting actions with exactly-once semantics
// (R3, R4).
//
// The algorithm is asynchronous in the paper's sense: in a nice run the
// replica that receives the request executes alone (a primary-backup
// flavor); under (possibly false) failure suspicion, other replicas start
// new rounds and execute concurrently (an active-replication flavor), with
// three consensus arrays arbitrating:
//
//	owner-agreement[round]    — who owns a round            (key "owner/…")
//	result-agreement[request] — result of idempotent action (key "result/…")
//	outcome-agreement[request]— commit/abort of undoable    (key "outcome/…")
//
// A request's rounds live in a roundLog (roundlog.go): its round guards,
// the ownership race, the owner scan, the live-owner rule, the cleaning
// claim and the settling of an undoable execution's outcome. The batched
// plane (batch.go) keeps one per slot and runs the same functions.
//
// Differences from the paper's pseudo-code, each forced by a gap the
// figures elide (see DESIGN.md §2):
//
//   - Multi-request support: consensus instances are namespaced by request
//     ID.
//   - Request gossip: the figures give every replica access to the shared
//     owner-agreement array; here servers broadcast an announce message on
//     first sight of a request so every cleaner knows which instances to
//     read.
//   - Cleaner re-reply: the cleaner forwards a fixed result to the client
//     after taking over a suspected owner's round, and from a live owner's
//     round when this replica accepted the client's submit but could not
//     answer it — without this, an owner crashing between deciding and
//     replying, or a reply black-holed by the link plane, would leave the
//     client waiting forever and R2 would not hold.
//   - Round tagging: undoable executions and their cancel/commit actions
//     carry (request ID, round) in their event values, so a cancellation
//     for round n cannot cancel round n+1 (§5.4); idempotent executions
//     carry only the request ID, so retries in later rounds collapse under
//     rule 18.
package core

import (
	"errors"
	"time"

	"xability/internal/action"
	"xability/internal/consensus"
	"xability/internal/env"
	"xability/internal/fd"
	"xability/internal/obs"
	"xability/internal/recycle"
	"xability/internal/simnet"
	"xability/internal/sm"
	"xability/internal/vclock"
	"xability/internal/wal"
)

// WAL record kinds for the server's durable state (DESIGN.md §9). A
// restarted replica replays these to remember which requests it saw, which
// (request, round) pairs it attempted — the duplicate-execution guard must
// survive a crash, or a restarted owner re-proposes its round, reads back
// its own ownership and executes twice — and which results it fixed.
const (
	recRequest = "req"   // Key=request ID, Str=client, Val=action.Request
	recRound   = "round" // Key=request ID, Round=attempted round
	recFinish  = "fin"   // Key=request ID, Str=fixed result
)

// EmptyResult is the paper's empty-result sentinel: the value the cleaner
// proposes in cleaning mode to prevent a suspected owner from enforcing its
// result.
const EmptyResult action.Value = "\x00empty-result"

// MaxRound bounds the owner-agreement array (the paper's max-round).
const MaxRound = 64

// execRetryDelay is the backoff between attempts of a failing action in
// execute-until-success. Measured on the cluster clock: failure-stretched
// executions span simulated time (so suspicions and crashes injected at
// virtual instants can land mid-execution, as in a real deployment where
// retries are paced), yet cost no wall time under the virtual clock.
const execRetryDelay = 500 * time.Microsecond

// Message types exchanged between client stubs and servers.
const (
	MsgSubmit   = "submit"   // client → server: SubmitPayload
	MsgResult   = "result"   // server → client: ResultPayload
	MsgAnnounce = "announce" // server → server: SubmitPayload (request gossip)
)

// SubmitPayload carries a request and the client to reply to.
type SubmitPayload struct {
	Req    action.Request
	Client simnet.ProcessID
}

// ResultPayload carries a reply.
type ResultPayload struct {
	ReqID string
	Value action.Value
}

type ownerDecision struct {
	Owner  simnet.ProcessID
	Req    action.Request
	Client simnet.ProcessID
	// Batch carries the slot's ordered members in the batched plane
	// (see batch.go); nil in the per-request plane. Deciding the batch
	// content inside the ownership decision is what fixes the batch across
	// rounds: a cleaner taking over round r+1 re-proposes the round-1 batch
	// verbatim, so every round of a slot executes the same members.
	Batch []SubmitPayload
}

type outcomeDecision struct {
	Outcome string // "commit" or "abort"
	Value   action.Value
}

// Keys of the three consensus arrays: comparable struct values, built by
// literal — the protocol's inner loops (ownership races, the cleaner's
// largest-defined-index scans) key instances without formatting strings.
func ownerKey(reqID string, round int) consensus.Key {
	return consensus.Key{Space: consensus.SpaceOwner, ID: reqID, Round: int32(round)}
}
func resultKey(reqID string, round int) consensus.Key {
	return consensus.Key{Space: consensus.SpaceResult, ID: reqID, Round: int32(round)}
}
func outcomeKey(reqID string, round int) consensus.Key {
	return consensus.Key{Space: consensus.SpaceOutcome, ID: reqID, Round: int32(round)}
}

// cleanInterval is the cleaner's polling period, and the timeout on the slot
// plane's cond waits, which re-check for a stop.
const cleanInterval = time.Millisecond

// Server is one replica of the replicated service (Figure 6).
type Server struct {
	id   simnet.ProcessID
	ep   *simnet.Endpoint
	mach *sm.Machine
	det  fd.Detector
	cons consensus.Provider
	net  *simnet.Network
	clk  *vclock.Virtual

	costs CostModel
	cpu   *vcpu
	batch BatchConfig
	log   *wal.Log     // stable storage; nil runs in-memory (no restart)
	m     *obs.Metrics // nil-safe run metrics
	tr    *obs.Trace   // nil-safe span recorder

	recv  serverRecv // Figure 6's request loop, as a Runner on the clock
	clean cleaner    // Figure 6's cleaner thread, as a timer on the clock

	stopped bool
	active  map[string]*requestState
	order   []string // request IDs in arrival order, for the cleaner's pass

	// Batched plane (nil/zero unless batch.Enabled; see batch.go).
	slots *slotState
}

type requestState struct {
	roundLog                // the request's rounds, keyed by its ID
	req      action.Request // untagged except ID
	client   simnet.ProcessID
	// done and result are durable (xvet:durable): a fixed result must
	// survive restart so re-submissions stay idempotent (R1).
	done     bool         //xvet:durable
	result   action.Value //xvet:durable
	owed     bool         // this replica accepted the client's submit and did not answer it
	direct   bool         // this replica received the client's submit itself
	queued   bool         // enqueued in this replica's pending batch or a known slot
	doneSlot int          // slot that finished it (batched plane; -1 otherwise)
}

// newRequestState is the state of a request first seen here.
func newRequestState(req action.Request, client simnet.ProcessID) *requestState {
	return &requestState{roundLog: roundLog{id: req.ID}, req: req, client: client, doneSlot: -1}
}

// ServerConfig assembles a server's dependencies.
type ServerConfig struct {
	ID        simnet.ProcessID
	Endpoint  *simnet.Endpoint
	Machine   *sm.Machine
	Detector  fd.Detector
	Consensus consensus.Provider
	Network   *simnet.Network
	// Costs charges virtual time per protocol primitive (see CostModel);
	// the zero value disables charging.
	Costs CostModel
	// Batch enables the batched/pipelined slot plane (see BatchConfig);
	// the zero value keeps the per-request protocol.
	Batch BatchConfig
	// Log is the replica's write-ahead log on stable storage; nil (the
	// default) runs fully in-memory, where a crash is final.
	Log *wal.Log
}

// NewServer builds a replica.
func NewServer(cfg ServerConfig) *Server {
	s := new(Server)
	s.Reset(cfg)
	return s
}

// Reset makes s the replica NewServer(cfg) builds, keeping the storage of
// its request table, its arrival order and the cleaner's snapshot. The
// previous incarnation's work must be over — its clock Quiesced: the
// cleaner's timer is re-initialised in place.
func (s *Server) Reset(cfg ServerConfig) {
	*s = Server{
		id:     cfg.ID,
		ep:     cfg.Endpoint,
		mach:   cfg.Machine,
		det:    cfg.Detector,
		cons:   cfg.Consensus,
		net:    cfg.Network,
		clk:    cfg.Network.Clock(),
		costs:  cfg.Costs,
		batch:  cfg.Batch.withDefaults(),
		log:    cfg.Log,
		m:      cfg.Network.Metrics(),
		tr:     cfg.Network.Trace(),
		recv:   serverRecv{s: s},
		clean:  cleaner{s: s, snap: recycle.Slice(s.clean.snap)},
		active: recycle.Map(s.active, 0),
		order:  recycle.Slice(s.order),
	}
	s.clk.InitTimer(&s.clean.timer, &s.clean)
	if s.costs.enabled() {
		s.cpu = newVCPU(s.clk)
	}
	if s.batch.Enabled {
		s.slots = newSlotState(s)
	}
	if s.log != nil {
		s.log.SetCompactor(serverCompact)
	}
}

// serverCompact is the server's snapshot fold (wal.Compactor): the
// durable state per request is its first req record, then — for an
// unfinished request — the round records guarding re-attempts, or — for
// a finished one — just its fin record. Round records of a finished
// request are dead weight: the guard exists to stop a restarted replica
// from re-attempting a round and double-executing, and a recovered
// done/result answers every later touch of the request before any round
// is attempted. Request order is preserved (it is the replay order of
// s.order); replaying the fold's output yields state the server cannot
// distinguish from replaying the full prefix.
func serverCompact(prefix []wal.Record) []wal.Record {
	fin := make(map[string]int, len(prefix)) // last fin index per request
	for i, r := range prefix {
		if r.Kind == recFinish {
			fin[r.Key] = i
		}
	}
	out := make([]wal.Record, 0, len(prefix))
	seenReq := make(map[string]bool, len(prefix))
	type roundKey struct {
		id    string
		round int32
	}
	seenRound := make(map[roundKey]bool)
	for i, r := range prefix {
		switch r.Kind {
		case recRequest:
			if seenReq[r.Key] {
				continue
			}
			seenReq[r.Key] = true
			out = append(out, r)
			if fi, done := fin[r.Key]; done {
				out = append(out, prefix[fi])
			}
		case recRound:
			if _, done := fin[r.Key]; done {
				continue
			}
			rk := roundKey{r.Key, r.Round}
			if seenRound[rk] {
				continue
			}
			seenRound[rk] = true
			out = append(out, r)
		case recFinish:
			// Emitted beside its req above. A fin whose req record is
			// missing is unreachable on replay (Recover ignores it) — and
			// cannot occur, since the request loop persists a request before
			// anything else touches it.
			_ = i
		}
	}
	return out
}

// propose issues a consensus proposal, charging the cost model's per-proposal
// CPU time first. Both planes (per-request and batched) fund every proposal
// through here, so T11's before/after comparison charges them identically.
func (s *Server) propose(key consensus.Key, val any) any {
	s.cpu.charge(s.costs.Consensus)
	s.m.Inc(obs.ConsProposals)
	return s.cons.Object(key).Propose(val)
}

// Start arms the request loop and the cleaner (the cobegin of Figure 6)
// on the network clock. With batching enabled the cobegin gains the
// batcher (window-driven slot formation; see batch.go), and the cleaner's
// pass applies and cleans slots. All three are Runners on the clock's
// pump, not goroutines: the request loop's and the batcher's first runs
// are AfterRunner(0) events, the cleaner's a timer one period out. Arming
// only schedules, so nothing of it runs before the caller's next wait.
func (s *Server) Start() {
	s.clk.AfterRunner(0, &s.recv)
	s.clean.timer.Reset(cleanInterval)
	if s.batch.Enabled {
		s.clk.AfterRunner(0, &s.slots.batcher)
	}
}

// Stop ends the server's activities without simulating a crash: the
// cleaner, the slot plane and the rounds stop at their next step. The
// request loop keeps handling messages until the endpoint closes.
func (s *Server) Stop() { s.stopped = true }

// Crash simulates a crash (§5.2: crash-stop): the process's endpoints go
// silent and all its activities cease at the next step boundary.
func (s *Server) Crash() {
	s.Stop()
	s.net.Crash(s.id)
	s.net.Crash(fd.FDEndpoint(s.id))
	s.net.Crash(consensus.ConsEndpoint(s.id))
}

// ID returns the replica's process ID.
func (s *Server) ID() simnet.ProcessID { return s.id }

// persistRound forces a (request, round) attempt to stable storage —
// write-ahead of the ownership proposal, so a restarted replica cannot
// re-attempt a round it already entered.
func (s *Server) persistRound(key consensus.Key) {
	if s.log != nil {
		s.log.Append(wal.Record{Kind: recRound, Key: key.ID, Round: key.Round})
	}
}

// persistFinish forces a fixed result to stable storage.
func (s *Server) persistFinish(reqID string, res action.Value) {
	if s.log != nil {
		s.log.Append(wal.Record{Kind: recFinish, Key: reqID, Str: string(res)})
	}
}

// Recover rebuilds the replica's durable state from its write-ahead log.
// Call it on a fresh Server before Start, with the log of the crashed
// incarnation. Replay is idempotent by construction: requests re-create
// their entry only on first sight, round records re-arm their round's bit
// in the request's guard (a round outside 1..MaxRound arms nothing), and
// finish records overwrite with the same fixed value. Nothing else needs
// rebuilding: a replica keeps no state of its own beyond this log, every
// effect lives in the environment.
func (s *Server) Recover() {
	if s.log == nil {
		return
	}
	replayed := int64(0)
	s.log.Replay(func(r wal.Record) {
		if r.Kind != recRequest && r.Kind != recRound && r.Kind != recFinish {
			return // snapshot markers carry no server state
		}
		replayed++
		switch r.Kind {
		case recRequest:
			req, ok := r.Val.(action.Request)
			if !ok {
				return
			}
			if _, seen := s.active[r.Key]; !seen {
				s.active[r.Key] = newRequestState(req, simnet.ProcessID(r.Str))
				s.order = append(s.order, r.Key)
			}
		case recRound:
			if st := s.active[r.Key]; st != nil && r.Round >= 1 && r.Round <= MaxRound {
				st.attempted |= roundBit(int(r.Round)) //xvet:ok durablewrite recovery replays the log; re-persisting here would double every record
			}
		case recFinish:
			if st := s.active[r.Key]; st != nil {
				st.done = true                  //xvet:ok durablewrite recovery replays the log; re-persisting here would double every record
				st.result = action.Value(r.Str) //xvet:ok durablewrite recovery replays the log; re-persisting here would double every record
			}
		}
	})
	s.m.Add(obs.WALReplayed, replayed)
}

// serverRecv is Figure 6's request loop as a vclock.Runner on the clock's
// pump. Each run drains the mailbox in arrival order and re-arms on the
// endpoint (simnet.Endpoint.WaitRunner) until the endpoint closes; a stop
// alone does not end it. A first-seen request is written ahead with
// wal.Log.AppendThen, and across the sync tariff the drain suspends —
// later deliveries only queue in the mailbox — until the continuation, a
// run of the same Runner, finishes the request's message and drains on.
// At zero tariff all of it runs inline.
type serverRecv struct {
	s    *Server
	sync wal.Sync
	// The message suspended in its persist: its request's state (nil while
	// no message is suspended), its payload, and whether it was a submit.
	st     *requestState
	p      SubmitPayload
	submit bool
}

// Run implements vclock.Runner.
func (r *serverRecv) Run() {
	s := r.s
	if st := r.st; st != nil {
		// Persisted — or torn off by a crash during its sync: the message
		// is finished either way, as after the blocking Append, and a
		// crashed endpoint is closed, so the drain ends below.
		p, submit := r.p, r.submit
		r.st, r.p = nil, SubmitPayload{}
		if submit {
			s.submitted(st, p, true)
		}
	}
	for {
		msg, ok := s.ep.TryRecv()
		if !ok {
			break
		}
		if r.handle(msg) {
			return // suspended; the continuation runs Run again
		}
	}
	if !s.ep.Closed() {
		s.ep.WaitRunner(r)
	}
}

// handle handles one message. It reports true when it suspended the drain
// in a first-seen request's persist.
func (r *serverRecv) handle(msg simnet.Message) bool {
	s := r.s
	p, ok := msg.Payload.(SubmitPayload)
	if !ok {
		return false
	}
	switch msg.Type {
	case MsgSubmit:
		if s.batch.Enabled {
			// Batched plane: no per-request announce gossip (the batch
			// content rides in the slot's ownership decision, which is
			// where cleaners discover it) and no per-request ownership
			// race — the request joins this replica's pending batch.
			s.enqueue(p)
			return false
		}
		st, first := s.noteRequest(p.Req, p.Client)
		if first && s.log != nil {
			r.persist(st, p, true)
			return true
		}
		s.submitted(st, p, first)
	case MsgAnnounce:
		if st, first := s.noteRequest(p.Req, p.Client); first {
			s.tr.Instant(s.clk.Now(), string(s.id), "announce", p.Req.ID)
			if s.log != nil {
				r.persist(st, p, false)
				return true
			}
		}
	}
	return false
}

// persist forces a first-seen request to stable storage, suspending the
// drain until it is durable; the continuation finishes the message.
func (r *serverRecv) persist(st *requestState, p SubmitPayload, submit bool) {
	r.st, r.p, r.submit = st, p, submit
	r.s.log.AppendThen(wal.Record{Kind: recRequest, Key: p.Req.ID, Str: string(p.Client), Val: p.Req}, &r.sync, r)
}

// submitted finishes a submit once its request is known here and, on first
// sight (first), persisted: it announces a new request to the other
// replicas, answers a completed one with its fixed result — which keeps
// submit idempotent (R1) without re-executing anything — and otherwise
// starts round 1.
func (s *Server) submitted(st *requestState, p SubmitPayload, first bool) {
	if first {
		s.ep.Broadcast(MsgAnnounce, p)
	}
	if st.done {
		s.ep.Send(p.Client, MsgResult, ResultPayload{ReqID: p.Req.ID, Value: st.result})
		return
	}
	// req.round := 1 (Figure 6), on a goroutine of its own: the round
	// blocks in Propose, the vCPU and the WAL.
	s.clk.Go(func() {
		if !s.processRequest(st, p.Req, 1, p.Client) {
			s.owe(st)
		}
	})
}

// noteRequest records a request for the cleaner; reports whether it was
// previously unknown to this replica.
func (s *Server) noteRequest(req action.Request, client simnet.ProcessID) (*requestState, bool) {
	st, ok := s.active[req.ID]
	if !ok {
		st = newRequestState(req, client)
		s.active[req.ID] = st
		s.order = append(s.order, req.ID)
	}
	return st, !ok
}

// taggedFor returns the request as executed in a round: undoable actions
// (and, through Request.Cancel/Commit, their derived actions) carry the
// round; idempotent actions carry only the request ID so that executions
// from different rounds collapse under rule 18.
func (s *Server) taggedFor(req action.Request, round int) action.Request {
	if s.mach.IsUndoable(req) {
		return req.WithRound(round)
	}
	return req.WithRound(0)
}

// processRequest is Figure 6's process-request for st's request: race for
// ownership of the round (a storm-tossed heartbeat client wraps its
// failover cycle back to the owner, which the round guard stops from
// executing twice); the winner executes, coordinates the result, and
// replies. It reports whether it sent the client a result itself — on the
// submit path this replica owes the client a reply when it did not (owe).
func (s *Server) processRequest(st *requestState, req action.Request, round int, client simnet.ProcessID) bool {
	if _, won := s.race(&st.roundLog, round, ownerDecision{Owner: s.id, Req: req, Client: client}); !won {
		return false // another replica owns this round; the cleaner watches it
	}
	// The round is driven until this returns, so the cleaner's resume path
	// (for rounds we own but are no longer driving — the post-restart gap)
	// leaves this live execution alone.
	span := s.tr.Begin(s.clk.Now(), string(s.id), "own-round", req.ID)
	defer func() {
		s.release(&st.roundLog, round)
		s.tr.End(s.clk.Now(), string(s.id), "own-round", span)
	}()
	exec := s.taggedFor(req, round)
	eSpan := s.tr.Begin(s.clk.Now(), string(s.id), "execute", req.ID)
	res, ok := s.executeUntilSuccess(exec)
	s.tr.End(s.clk.Now(), string(s.id), "execute", eSpan)
	if !ok {
		// Crashed mid-execution, or a cleaner fenced the round (decided
		// abort) while we retried — either way the aborting side owns the
		// request's progress from here.
		return false
	}
	res = s.resultCoordination(req, round, res)
	if res != EmptyResult && !s.stopped {
		s.reply(req.ID, client, res)
		return true
	}
	return false
}

// owe records that this replica owes st's client a reply: it accepted the
// submit but did not answer it — it lost the ownership race, the round
// guard suppressed a re-attempt, or its round was cut off. The owner's
// reply may be black-holed by the link plane, and a takeover fires only
// while that owner is suspected; unanswered, the client can await an
// unsuspected, already-answered replica forever (found by the seeded random
// fault generator). The first look runs here, on the submit goroutine;
// every later one is a decision of the cleaner's pass (cleanRequest).
func (s *Server) owe(st *requestState) {
	st.owed = true
	if r, od := s.lastOwner(&st.roundLog); r > 0 && s.ownerLive(&st.roundLog, r, od) {
		if step := s.answer(st, r); step != nil {
			step()
		}
	}
}

// answer forwards to a client this replica owes the result fixed by round
// r, the request's latest decided round, whose owner is live: the fixed
// value of an idempotent round, or the committed outcome of an undoable
// one. Only the latest round can hold one: a round is succeeded only after
// it fixes EmptyResult or abort. The live owner runs its own commit. A
// request nobody owes costs one look at its flag. Without a log the reply
// goes out inline; with one, finish persists it first and may sleep the
// sync tariff, so answer returns the reply as a step. The agreement objects
// come from st's cache (objectsAt), so a request in flight costs the
// provider one lookup per object however often it is read.
func (s *Server) answer(st *requestState, r int) func() {
	if !st.owed || st.done || s.stopped {
		return nil
	}
	var res action.Value
	fixed := false
	if s.mach.IsIdempotent(st.req) {
		v, _ := s.objectsAt(&st.roundLog, r, resultKey).result.Read()
		res, fixed = v.(action.Value)
		fixed = fixed && res != EmptyResult
	} else if s.mach.IsUndoable(st.req) {
		v, _ := s.objectsAt(&st.roundLog, r, outcomeKey).result.Read()
		dec, ok := v.(outcomeDecision)
		res, fixed = dec.Value, ok && dec.Outcome == "commit"
	}
	if !fixed {
		return nil
	}
	if s.log == nil {
		s.reply(st.req.ID, st.client, res)
		return nil
	}
	return func() { s.reply(st.req.ID, st.client, res) }
}

// cleaner is Figure 6's cleaner thread as a vclock.Timer: each tick, one
// cleanInterval after the last pass ended, is one pass over the requests
// this replica knows (or, batched, a walk of the slot log): when
// the owner of a request's latest round is suspected, neutralize that
// round (cleaning-mode result coordination) and, if no result was fixed,
// start the next round as its owner; when the owner is live, answer a
// client this replica owes from the round's fixed result.
type cleaner struct {
	s     *Server
	timer vclock.Timer
	snap  []*requestState // the pass's requests, reused across ticks
	next  int             // index into snap of the next decision
}

// Run is one tick, on the clock's pump. The pass's decisions read
// agreement arrays, ask the detector and send in-memory replies — nothing
// that blocks — so they run inline. At the first step that may block (a
// propose, a resume, a takeover, a reply persisted first) the tick spawns
// one goroutine, which takes the step, finishes the pass and re-arms; a
// pass with nothing to do re-arms here. The pump has one runnable unit
// throughout either way, so both paths push the same events in the same
// order.
func (c *cleaner) Run() {
	s := c.s
	if s.stopped {
		return
	}
	c.next = 0
	if !s.batch.Enabled {
		c.snap = s.snapshotActive(c.snap[:0])
	}
	if step := c.nextStep(); step != nil {
		s.clk.Go(func() { c.finish(step) })
		return
	}
	c.timer.Reset(cleanInterval)
}

// finish runs on the goroutine a tick spawned: step, the rest of the
// pass with every step taken in place, then the next tick. The snapshot
// is not touched by another tick meanwhile: that one is armed only here.
func (c *cleaner) finish(step func()) {
	for ; step != nil; step = c.nextStep() {
		step()
	}
	c.timer.Reset(cleanInterval)
}

// nextStep makes the pass's decisions from where the last one left off
// and returns the first step to take, or nil at the end of the pass. The
// batched pass is one walk of the slot log, which ends at its first step.
func (c *cleaner) nextStep() func() {
	s := c.s
	if s.batch.Enabled {
		if c.next > 0 {
			return nil
		}
		c.next++
		return s.cleanSlot()
	}
	for c.next < len(c.snap) {
		st := c.snap[c.next]
		c.next++
		if step := s.cleanRequest(st); step != nil {
			return step
		}
	}
	return nil
}

// snapshotActive appends the requests not yet done, in arrival order, to
// buf.
func (s *Server) snapshotActive(buf []*requestState) []*requestState {
	for _, id := range s.order {
		if st := s.active[id]; st != nil && !st.done {
			buf = append(buf, st)
		}
	}
	return buf
}

// cleanRequest is the cleaner's decision about one request. It reads the
// request's owner-agreement array and asks the detector, and returns the
// step to take — which may block — or nil when there is nothing to do: a
// live owner's round is answered to a client this replica owes (answer),
// any other decided round cleaned (cleaning).
func (s *Server) cleanRequest(st *requestState) func() {
	rl := &st.roundLog
	lastRound, od := s.lastOwner(rl)
	// An attempt record for the round after last-round is an ownership
	// proposal some incarnation of this replica wrote ahead and then never
	// learned the decision of — it crashed inside the propose. The quorum
	// may have decided the round — possibly electing this replica owner —
	// while the restarted replica's consensus state knows nothing of it.
	// Nobody else will resolve that: correct detectors never suspect a
	// live restarted replica, so every other cleaner defers forever to an
	// owner that does not know it owns the round (found by the
	// restart-majority sweep, seed 12; pinned by
	// TestRestartForgottenOwnershipResolved). Re-proposing the recovered
	// attempt makes this node learn — or, if the quorum never formed,
	// force — the round's decision; the next cleaner pass then acts on it
	// through the normal resume/takeover paths.
	if lastRound < MaxRound && s.dangling(rl, lastRound+1) {
		key := ownerKey(rl.id, lastRound+1)
		return func() { s.propose(key, ownerDecision{Owner: s.id, Req: st.req, Client: st.client}) }
	}
	if lastRound == 0 {
		return nil // nobody owns round 1 yet; the client's retry handles it
	}
	if s.ownerLive(rl, lastRound, od) {
		return s.answer(st, lastRound)
	}
	return s.cleaning(rl, lastRound, od, st, 0)
}

// cleanRound is cleaning mode on the request plane, for a suspected
// owner's round and for a round this replica's previous incarnation owned
// alike (cleaning): coordinate with
// EmptyResult, which prevents the round's owner from enforcing a result;
// then, if none was fixed, drive the successor round as its owner, and
// otherwise forward the fixed result — the owner may have crashed before
// replying, and the client must terminate (R2). Coordination runs a
// decided commit before the result goes out, so a resume never re-executes
// its round and never replies for a commit that did not run.
func (s *Server) cleanRound(st *requestState, od ownerDecision, round int) {
	res := s.resultCoordination(od.Req, round, EmptyResult)
	if s.stopped {
		return
	}
	if res == EmptyResult {
		s.processRequest(st, od.Req, round+1, od.Client)
		return
	}
	s.reply(od.Req.ID, od.Client, res)
}

// resultCoordination is Figure 7's result-coordination: agreement on the
// result of idempotent actions, and on the outcome (commit/abort) of
// undoable actions. val == EmptyResult selects cleaning mode.
func (s *Server) resultCoordination(req action.Request, round int, val action.Value) action.Value {
	if s.mach.IsIdempotent(req) {
		decided := s.propose(resultKey(req.ID, round), val)
		v, ok := decided.(action.Value)
		if !ok {
			return EmptyResult
		}
		return v
	}
	if s.mach.IsUndoable(req) {
		var proposal outcomeDecision
		if val == EmptyResult {
			proposal = outcomeDecision{Outcome: "abort", Value: EmptyResult}
		} else {
			proposal = outcomeDecision{Outcome: "commit", Value: val}
		}
		decided := s.propose(outcomeKey(req.ID, round), proposal)
		dec, ok := decided.(outcomeDecision)
		if !ok {
			return EmptyResult
		}
		exec := s.taggedFor(req, round)
		if dec.Outcome == "abort" {
			s.tr.Instant(s.clk.Now(), string(s.id), "cancel", req.ID)
			s.settle(exec, false)
			return EmptyResult
		}
		s.tr.Instant(s.clk.Now(), string(s.id), "commit", req.ID)
		s.settle(exec, true)
		return dec.Value
	}
	return EmptyResult
}

// executeUntilSuccess is Figure 7's execute-until-success: retry an action
// until it succeeds; a failed undoable action is cancelled before the
// retry. Returns ok=false when the server stopped (crashed) before
// succeeding, or when the transaction was fenced by an abort decision —
// in both cases the action will never succeed here.
func (s *Server) executeUntilSuccess(req action.Request) (action.Value, bool) {
	for attempt := 0; ; attempt++ {
		if s.stopped {
			return "", false
		}
		if attempt > 0 {
			s.clk.Sleep(execRetryDelay)
			if s.stopped {
				return "", false
			}
		}
		s.cpu.charge(s.costs.Exec)
		res, err := s.mach.Execute(req)
		if err == nil {
			return res, true
		}
		if errors.Is(err, env.ErrFenced) {
			// A cleaner neutralized this round while we were retrying: the
			// abort is decided, the fence makes re-execution impossible, and
			// the aborting cleaner owns the next round. Cancel once — the
			// fenced attempt emitted a start event, and the checker can only
			// erase a dangling start through a later cancel pair — then give
			// up instead of spinning on the fence.
			if cancel, ok := s.mach.Cancel(req); ok {
				s.executeUntilSuccess(cancel)
			}
			return "", false
		}
		if cancel, ok := s.mach.Cancel(req); ok {
			if _, ok := s.executeUntilSuccess(cancel); !ok {
				return "", false
			}
		}
		// Idempotent (including cancel/commit) actions simply retry.
	}
}

// reply fixes a request's result at this replica and sends it to the
// client. Replies are idempotent, so every path that learns a fixed result
// may forward it.
func (s *Server) reply(reqID string, client simnet.ProcessID, res action.Value) {
	s.finish(reqID, res)
	s.ep.Send(client, MsgResult, ResultPayload{ReqID: reqID, Value: res})
}

// finish marks a request complete, remembering its result for
// re-submissions. The result is persisted before the in-memory mark (and
// so before any reply built on it), keeping R1's fixed-result promise
// across a crash directly after the reply.
func (s *Server) finish(reqID string, res action.Value) {
	st := s.active[reqID]
	if st == nil || st.done {
		return
	}
	s.persistFinish(reqID, res)
	st.done = true
	st.result = res
}
