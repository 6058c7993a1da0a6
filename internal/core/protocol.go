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
// Differences from the paper's pseudo-code, each forced by a gap the
// figures elide (see DESIGN.md §2):
//
//   - Multi-request support: consensus instances are namespaced by request
//     ID.
//   - Request gossip: the figures give every replica access to the shared
//     owner-agreement array; here servers broadcast an announce message on
//     first sight of a request so every cleaner knows which instances to
//     read.
//   - Cleaner re-reply: when the cleaner finds a suspected owner whose
//     round already fixed a result, it forwards that result to the client —
//     without this, an owner crashing between deciding and replying would
//     leave the client waiting forever and R2 would not hold.
//   - Round tagging: undoable executions and their cancel/commit actions
//     carry (request ID, round) in their event values, so a cancellation
//     for round n cannot cancel round n+1 (§5.4); idempotent executions
//     carry only the request ID, so retries in later rounds collapse under
//     rule 18.
package core

import (
	"errors"
	"sync"
	"time"

	"xability/internal/action"
	"xability/internal/consensus"
	"xability/internal/env"
	"xability/internal/fd"
	"xability/internal/obs"
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

	clean *cleaner // Figure 6's cleaner thread, as a timer on the clock

	mu      sync.Mutex
	stopped bool
	active  map[string]*requestState
	order   []string // request IDs in arrival order, for the cleaner's pass
	// rounds is durable state (xvet:durable): the (request, round) pairs
	// this replica has processed. Writers must persist the pair first —
	// the durablewrite analyzer flags any write in a function that never
	// persists.
	rounds map[consensus.Key]bool //xvet:durable
	// inflight marks (request, round) pairs this incarnation is currently
	// driving through execute/coordinate. Deliberately NOT durable: a
	// restarted incarnation starts with it empty, which is exactly how the
	// cleaner's resume path tells "the owner goroutine died with the crash"
	// from "the owner goroutine is still working".
	inflight map[consensus.Key]bool

	// Batched plane (nil/zero unless batch.Enabled; see batch.go).
	slots *slotState
}

type requestState struct {
	req    action.Request // untagged except ID
	client simnet.ProcessID
	// done and result are durable (xvet:durable): a fixed result must
	// survive restart so re-submissions stay idempotent (R1).
	done     bool           //xvet:durable
	result   action.Value   //xvet:durable
	watching bool           // an awaitFixed watcher is already running here
	direct   bool           // this replica received the client's submit itself
	queued   bool           // enqueued in this replica's pending batch or a known slot
	doneSlot int            // slot that finished it (batched plane; -1 otherwise)
	objs     []roundObjects // agreement objects of the rounds resultFixed has reached
	// objs' first backing array: a scan rarely reaches past round 3 (a
	// takeover, then the undecided round after it), so the cache usually
	// costs no allocation of its own.
	objsBuf [3]roundObjects
}

// roundObjects is one round of a request's agreement arrays as resultFixed
// reads them: the owner-agreement object and, once a scan has found the
// owner decided, the result- or outcome-agreement object.
type roundObjects struct{ owner, result consensus.Object }

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
	s := &Server{
		id:       cfg.ID,
		ep:       cfg.Endpoint,
		mach:     cfg.Machine,
		det:      cfg.Detector,
		cons:     cfg.Consensus,
		net:      cfg.Network,
		clk:      cfg.Network.Clock(),
		costs:    cfg.Costs,
		batch:    cfg.Batch.withDefaults(),
		log:      cfg.Log,
		m:        cfg.Network.Metrics(),
		tr:       cfg.Network.Trace(),
		active:   make(map[string]*requestState),
		rounds:   make(map[consensus.Key]bool),
		inflight: make(map[consensus.Key]bool),
	}
	s.clean = &cleaner{s: s}
	s.clean.timer = s.clk.NewTimer(s.clean)
	if s.costs.enabled() {
		s.cpu = newVCPU(s.clk)
	}
	if s.batch.Enabled {
		s.slots = newSlotState(s.clk)
	}
	if s.log != nil {
		s.log.SetCompactor(serverCompact)
	}
	return s
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
			// cannot occur, since persistRequest precedes every finish.
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

// Start launches the request loop and arms the cleaner (the cobegin of
// Figure 6) on the network clock. With batching enabled the cobegin gains
// the batcher (window-driven slot formation) and the follower (in-order
// slot application; see batch.go). Spawning and arming only schedule, so
// nothing of it runs before the caller's next wait.
func (s *Server) Start() {
	s.clk.Go(s.mainLoop)
	s.clean.timer.Reset(cleanInterval)
	if s.batch.Enabled {
		s.clk.Go(s.batcher)
		s.clk.Go(s.follower)
	}
}

// Stop terminates the server's goroutines without simulating a crash.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

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

// persistRequest forces a first-seen request to stable storage. Callers
// must not hold s.mu: the sync wait is a clock event, and goroutines
// blocked on a held mutex count as runnable to the clock.
func (s *Server) persistRequest(req action.Request, client simnet.ProcessID) {
	if s.log != nil {
		s.log.Append(wal.Record{Kind: recRequest, Key: req.ID, Str: string(client), Val: req})
	}
}

// persistRound forces a (request, round) attempt to stable storage —
// write-ahead of the ownership proposal, so a restarted replica cannot
// re-attempt a round it already entered. Callers must not hold s.mu.
func (s *Server) persistRound(key consensus.Key) {
	if s.log != nil {
		s.log.Append(wal.Record{Kind: recRound, Key: key.ID, Round: key.Round})
	}
}

// persistFinish forces a fixed result to stable storage. Callers must not
// hold s.mu.
func (s *Server) persistFinish(reqID string, res action.Value) {
	if s.log != nil {
		s.log.Append(wal.Record{Kind: recFinish, Key: reqID, Str: string(res)})
	}
}

// Recover rebuilds the replica's durable state from its write-ahead log.
// Call it on a fresh Server before Start, with the log of the crashed
// incarnation. Replay is idempotent by construction: requests re-create
// their entry only on first sight, round records re-arm the
// (request, round) guard, and finish records overwrite with the same fixed
// value. Nothing else needs rebuilding: a replica keeps no state of its
// own beyond this log, every effect lives in the environment.
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
		s.mu.Lock()
		defer s.mu.Unlock()
		switch r.Kind {
		case recRequest:
			req, ok := r.Val.(action.Request)
			if !ok {
				return
			}
			if _, seen := s.active[r.Key]; !seen {
				s.active[r.Key] = &requestState{req: req, client: simnet.ProcessID(r.Str), doneSlot: -1}
				s.order = append(s.order, r.Key)
			}
		case recRound:
			s.rounds[consensus.Key{Space: consensus.SpaceOwner, ID: r.Key, Round: r.Round}] = true //xvet:ok durablewrite recovery replays the log; re-persisting here would double every record
		case recFinish:
			if st := s.active[r.Key]; st != nil {
				st.done = true                  //xvet:ok durablewrite recovery replays the log; re-persisting here would double every record
				st.result = action.Value(r.Str) //xvet:ok durablewrite recovery replays the log; re-persisting here would double every record
			}
		}
	})
	s.m.Add(obs.WALReplayed, replayed)
}

func (s *Server) isStopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

func (s *Server) mainLoop() {
	for {
		msg, ok := s.ep.Recv()
		if !ok {
			return
		}
		switch msg.Type {
		case MsgSubmit:
			p, ok := msg.Payload.(SubmitPayload)
			if !ok {
				continue
			}
			if s.batch.Enabled {
				// Batched plane: no per-request announce gossip (the batch
				// content rides in the slot's ownership decision, which is
				// where cleaners discover it) and no per-request ownership
				// race — the request joins this replica's pending batch.
				s.enqueue(p)
				continue
			}
			st, first := s.noteRequest(p.Req, p.Client)
			if first {
				s.persistRequest(p.Req, p.Client)
				s.ep.Broadcast(MsgAnnounce, p)
			}
			s.mu.Lock()
			done, res := st.done, st.result
			s.mu.Unlock()
			if done {
				// Re-submission of a completed request: replying with the
				// fixed result keeps submit idempotent (R1) without
				// re-executing anything.
				s.ep.Send(p.Client, MsgResult, ResultPayload{ReqID: p.Req.ID, Value: res})
				continue
			}
			// req.round := 1 (Figure 6).
			s.clk.Go(func() {
				if !s.processRequest(p.Req, 1, p.Client) {
					// This replica accepted the submission but did not
					// answer it — it lost the ownership race, or the
					// round guard suppressed a re-attempt. The original
					// owner's reply may be black-holed by the link plane,
					// and the cleaner only re-replies while that owner is
					// *suspected*; without a watcher the client can await
					// an unsuspected, already-answered replica forever
					// (found by the seeded random fault generator).
					// Replies are idempotent, so forwarding the fixed
					// result is always safe.
					s.awaitFixed(p.Req, p.Client)
				}
			})
		case MsgAnnounce:
			if p, ok := msg.Payload.(SubmitPayload); ok {
				if _, first := s.noteRequest(p.Req, p.Client); first {
					s.tr.Instant(s.clk.Now(), string(s.id), "announce", p.Req.ID)
					s.persistRequest(p.Req, p.Client)
				}
			}
		}
	}
}

// noteRequest records a request for the cleaner; reports whether it was
// previously unknown to this replica.
func (s *Server) noteRequest(req action.Request, client simnet.ProcessID) (*requestState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.active[req.ID]
	if !ok {
		st = &requestState{req: req, client: client, doneSlot: -1}
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

// processRequest is Figure 6's process-request: propose ownership of the
// round; the winner executes, coordinates the result, and replies. It
// reports whether it sent the client a result itself — callers on the
// submit path fall back to awaitFixed when it did not.
func (s *Server) processRequest(req action.Request, round int, client simnet.ProcessID) bool {
	if s.isStopped() || round > MaxRound {
		return false
	}
	// Each replica attempts a (request, round) pair at most once. Without
	// this, a re-submission of an in-progress request to the replica that
	// owns its round would read back its own ownership decision and
	// execute the round a second time — a duplicate committed execution
	// the calculus cannot reduce away. (A storm-tossed heartbeat client
	// wraps its failover cycle back to the owner and triggers exactly
	// that; scripted-suspicion schedules never do.)
	s.mu.Lock()
	key := ownerKey(req.ID, round)
	if s.rounds[key] {
		s.mu.Unlock()
		return false
	}
	s.rounds[key] = true
	s.mu.Unlock()
	// Write-ahead of the proposal: a replica that crashes between here and
	// the decision must come back remembering the attempt, or it would
	// re-propose, read back its own ownership, and execute the round twice.
	s.persistRound(key)
	decided := s.propose(key, ownerDecision{Owner: s.id, Req: req, Client: client})
	od, ok := decided.(ownerDecision)
	if !ok || od.Owner != s.id {
		return false // another replica owns this round; the cleaner watches it
	}
	// Mark the round in flight so the cleaner's resume path (for rounds we
	// own but are no longer driving — the post-restart gap) leaves this
	// live execution alone.
	s.mu.Lock()
	s.inflight[key] = true
	s.mu.Unlock()
	span := s.tr.Begin(s.clk.Now(), string(s.id), "own-round", req.ID)
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
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
	if res != EmptyResult && !s.isStopped() {
		s.reply(req.ID, client, res)
		return true
	}
	return false
}

// awaitFixed watches a request this replica accepted but could not answer
// (lost ownership race, or the round guard suppressed a duplicate
// attempt) and forwards the result once some round fixes one. Without it
// there is a liveness hole: the owning replica's reply can be black-holed
// by the link plane, and once suspicion of that owner has recovered the
// cleaner's re-reply path never fires again — the client then awaits an
// unsuspected replica that will never speak. The first look runs here, on
// the caller's goroutine; later looks are ticks of a timer at the
// cleaner's period (watcher). Under the model's assumptions some round
// eventually fixes a result (owners execute until success; aborted rounds
// are always succeeded by the aborting cleaner), so the watch terminates.
func (s *Server) awaitFixed(req action.Request, client simnet.ProcessID) {
	s.mu.Lock()
	st := s.active[req.ID]
	if st == nil || st.watching {
		s.mu.Unlock()
		return
	}
	st.watching = true
	s.mu.Unlock()
	w := &watcher{s: s, st: st, client: client}
	w.timer = s.clk.NewTimer(w)
	if res, ok := w.look(); ok {
		s.reply(req.ID, client, res)
	}
}

// watcher is awaitFixed's watch over one request after its first look: a
// vclock.Timer whose ticks, one cleanInterval apart, run on the clock's
// pump.
type watcher struct {
	s      *Server
	st     *requestState
	client simnet.ProcessID
	timer  *vclock.Timer
}

// look is one look at the request: the result, once some round fixed one;
// otherwise it arms the next look. A stopped server looks no more.
func (w *watcher) look() (action.Value, bool) {
	s, st := w.s, w.st
	if s.isStopped() {
		return EmptyResult, false
	}
	s.mu.Lock()
	done, res := st.done, st.result
	s.mu.Unlock()
	if !done {
		res, done = s.resultFixed(st)
	}
	if !done {
		w.timer.Reset(cleanInterval)
	}
	return res, done
}

// Run is a later look (vclock.Runner). A found result is replied inline
// when the reply cannot block; with a log, finish persists it first and
// may sleep the sync tariff, so the reply gets a goroutine of its own.
func (w *watcher) Run() {
	res, ok := w.look()
	if !ok {
		return
	}
	s, id, client := w.s, w.st.req.ID, w.client
	if s.log == nil {
		s.reply(id, client, res)
		return
	}
	s.clk.Go(func() { s.reply(id, client, res) })
}

// resultFixed scans the request's rounds, read-only, for a committed
// result: the fixed value of an idempotent round, or the committed
// outcome of an undoable one. Aborted rounds are skipped. Every path that
// learns a result without driving a round reads it here — the submit
// path's watcher and a restarted owner's resume. The agreement objects
// come from st's cache
// (roundObjectsAt), so a request in flight costs the provider one lookup
// per object however often it is scanned.
func (s *Server) resultFixed(st *requestState) (action.Value, bool) {
	req := st.req
	for r := 1; r <= MaxRound; r++ {
		o := s.roundObjectsAt(st, r, nil)
		if _, decided := o.owner.Read(); !decided {
			return EmptyResult, false // no further rounds exist yet
		}
		if s.mach.IsIdempotent(req) {
			if o.result == nil {
				o = s.roundObjectsAt(st, r, resultKey)
			}
			if v, ok := o.result.Read(); ok {
				if val, good := v.(action.Value); good && val != EmptyResult {
					return val, true
				}
			}
		} else if s.mach.IsUndoable(req) {
			if o.result == nil {
				o = s.roundObjectsAt(st, r, outcomeKey)
			}
			if v, ok := o.result.Read(); ok {
				if dec, good := v.(outcomeDecision); good && dec.Outcome == "commit" {
					return dec.Value, true
				}
			}
		}
	}
	return EmptyResult, false
}

// roundObjectsAt returns st's round-r agreement objects, looking each up in
// the provider once per request: the owner object when a scan first reaches
// the round, the result or outcome object (key) when one first asks for it.
// Scans go up from round 1, so round r-1 is cached by then.
func (s *Server) roundObjectsAt(st *requestState, r int, key func(string, int) consensus.Key) roundObjects {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.objs == nil {
		st.objs = st.objsBuf[:0]
	}
	if len(st.objs) < r {
		st.objs = append(st.objs, roundObjects{owner: s.cons.Object(ownerKey(st.req.ID, r))})
	}
	o := &st.objs[r-1]
	if key != nil && o.result == nil {
		o.result = s.cons.Object(key(st.req.ID, r))
	}
	return *o
}

// cleaner is Figure 6's cleaner thread as a vclock.Timer: each tick, one
// cleanInterval after the last pass ended, is one pass over the requests
// this replica knows (or, batched, over the first unapplied slot): when
// the owner of a request's latest round is suspected, neutralize that
// round (cleaning-mode result coordination) and, if no result was fixed,
// start the next round as its owner.
type cleaner struct {
	s     *Server
	timer *vclock.Timer
	snap  []*requestState // the pass's requests, reused across ticks
	next  int             // index into snap of the next decision
}

// Run is one tick, on the clock's pump. The pass's decisions read
// agreement arrays and ask the detector — nothing that blocks — so they
// run inline. At the first step that may block (a propose, a resume, a
// takeover) the tick spawns one goroutine, which takes the step, finishes
// the pass and re-arms; a pass with nothing to do re-arms here. The pump
// has one runnable unit throughout either way, so both paths push the
// same events in the same order.
func (c *cleaner) Run() {
	s := c.s
	if s.isStopped() {
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
// batched pass watches one slot: it is a single decision.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		if st := s.active[id]; st != nil && !st.done {
			buf = append(buf, st)
		}
	}
	return buf
}

// cleanRequest is the cleaner's decision about one request. It reads the
// request's owner-agreement array and asks the detector, and returns the
// step to take — which may block — or nil when there is nothing to do.
func (s *Server) cleanRequest(st *requestState) func() {
	reqID := st.req.ID
	lastRound, od := s.lastRequestOwner(st)
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
	if lastRound < MaxRound {
		key := ownerKey(reqID, lastRound+1)
		s.mu.Lock()
		dangling := s.rounds[key] && !s.inflight[key]
		s.mu.Unlock()
		if dangling {
			return func() { s.propose(key, ownerDecision{Owner: s.id, Req: st.req, Client: st.client}) }
		}
	}
	if lastRound == 0 {
		return nil // nobody owns round 1 yet; the client's retry handles it
	}
	if od.Owner == s.id {
		// A round we own but are not driving is a round our previous
		// incarnation was driving when it crashed: the goroutine died, the
		// WAL replay recovered the attempt record, and no other cleaner
		// will ever touch it — correct detectors do not suspect a live,
		// restarted replica. Resume it; a still-live execution is guarded
		// by the in-flight mark.
		return s.resumeOwnRound(st, od, lastRound)
	}
	if !s.det.Suspect(od.Owner) {
		return nil
	}
	return func() {
		s.m.Inc(obs.Takeovers)
		s.tr.Instant(s.clk.Now(), string(s.id), "takeover", reqID)
		s.cleanRound(od, lastRound)
	}
}

// lastRequestOwner is the cleaner's "let last-round be the largest defined
// index in owner-agreement" for a request, read through st's cached round
// objects (roundObjectsAt): the latest decided round and its ownership
// decision; round 0 when nobody owns round 1 yet.
func (s *Server) lastRequestOwner(st *requestState) (round int, od ownerDecision) {
	for r := 1; r <= MaxRound; r++ {
		v, decided := s.roundObjectsAt(st, r, nil).owner.Read()
		if !decided {
			break
		}
		round, od = r, v.(ownerDecision)
	}
	return round, od
}

// lastOwner is lastRequestOwner for a slot ID, looked up in the provider.
func (s *Server) lastOwner(id string) (round int, od ownerDecision) {
	for r := 1; r <= MaxRound; r++ {
		v, decided := s.cons.Object(ownerKey(id, r)).Read()
		if !decided {
			break
		}
		round, od = r, v.(ownerDecision)
	}
	return round, od
}

// cleanRound is cleaning mode, for a suspected owner's round and for a
// round this replica's previous incarnation owned alike: coordinate with
// EmptyResult, which prevents the round's owner from enforcing a result;
// then, if none was fixed, drive the successor round as its owner, and
// otherwise forward the fixed result — the owner may have crashed before
// replying, and the client must terminate (R2).
func (s *Server) cleanRound(od ownerDecision, round int) {
	res := s.resultCoordination(od.Req, round, EmptyResult)
	if s.isStopped() {
		return
	}
	if res == EmptyResult {
		s.processRequest(od.Req, round+1, od.Client)
		return
	}
	s.reply(od.Req.ID, od.Client, res)
}

// resumeOwnRound settles a round this replica owns but has no live
// goroutine for — the crash-recovery gap the write-ahead log alone cannot
// close. Recovery restores the round-attempt record, but the executing
// goroutine died with the old incarnation, and cleanRequest's takeover
// path requires suspicion of the owner, which a live restarted replica
// never draws. The resume acts as this round's own cleaner: forward a
// result the quorum already fixed, or abort the round and drive a
// successor — never re-execute the round itself (see the comment at the
// coordination call below). The in-flight check is the cleaner's
// decision: it returns nil while a live execution drives the round, and
// otherwise marks the round and returns the resume as the step.
func (s *Server) resumeOwnRound(st *requestState, od ownerDecision, round int) func() {
	req := od.Req
	key := ownerKey(req.ID, round)
	s.mu.Lock()
	if s.inflight[key] {
		s.mu.Unlock()
		return nil // a live execution is driving this round
	}
	s.inflight[key] = true
	s.mu.Unlock()
	return func() {
		s.tr.Instant(s.clk.Now(), string(s.id), "resume", req.ID)
		defer func() {
			s.mu.Lock()
			delete(s.inflight, key)
			s.mu.Unlock()
		}()
		// The crash may have hit between the outcome decision and the
		// reply: forward a fixed result rather than re-driving the round.
		if v, ok := s.resultFixed(st); ok {
			s.reply(req.ID, od.Client, v)
			return
		}
		// The crash may have hit anywhere between execution and the reply,
		// and the local consensus state cannot tell: the old incarnation
		// may have executed, proposed commit, and died in the narrow window
		// before learning the decision — which the quorum then fixed and
		// applied while this replica was down. Re-executing on local
		// evidence would put a second completed execution of an
		// already-committed round into the history, a duplicate the
		// calculus cannot reduce (found by the restart-random-majority
		// sweep, seed 114; pinned by the power-cycle sweeps). So resume
		// cleans its own round instead: coordination in cleaning mode
		// learns a fixed result if one exists — the reply then goes out —
		// and otherwise aborts the round like any cleaner would, letting
		// the successor round re-execute under a fresh tag.
		s.cleanRound(od, round)
	}
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
			// Fence before cancelling (testcancel, §5.3): the abort decision
			// means this round's effect must never be in force. The cancel
			// alone only rolls back — without the fence, an owner still
			// inside execute-until-success reactivates the cancelled
			// transaction on its next retry and re-applies the effect; if it
			// then crashes before reading the abort decision, that effect is
			// orphaned in force next to the succeeding round's commit.
			s.mach.Env().FenceUndoable(exec.Action, exec.EffectiveInput())
			s.executeUntilSuccess(exec.Cancel())
			return EmptyResult
		}
		s.tr.Instant(s.clk.Now(), string(s.id), "commit", req.ID)
		s.executeUntilSuccess(exec.Commit())
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
		if s.isStopped() {
			return "", false
		}
		if attempt > 0 {
			s.clk.Sleep(execRetryDelay)
			if s.isStopped() {
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
			if s.mach.Registry().IsUndoable(req.Action) {
				s.executeUntilSuccess(req.Cancel())
			}
			return "", false
		}
		if s.mach.Registry().IsUndoable(req.Action) {
			if _, ok := s.executeUntilSuccess(req.Cancel()); !ok {
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
	s.mu.Lock()
	st := s.active[reqID]
	if st == nil || st.done {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.persistFinish(reqID, res)
	s.mu.Lock()
	defer s.mu.Unlock()
	st.done = true
	st.result = res
}
