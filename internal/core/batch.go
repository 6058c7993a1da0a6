// Batched agreement and pipelined slots: the throughput plane.
//
// The per-request protocol of protocol.go pays one ownership agreement and
// one result/outcome agreement per request. The batched plane amortizes
// that: concurrently submitted requests coalesce into one *slot* — a
// deterministic ordered batch decided as a single agreement value — and
// slots form an RSM-style log. Agreement on later slots proceeds while
// earlier slots are still executing (pipelining, bounded by
// BatchConfig.Pipeline); effects commit strictly in slot order, so the
// environment reaches the same state it would executing the batch members
// one at a time.
//
// Fault tolerance is the per-request round machinery at slot granularity:
// each slot has a roundLog (roundlog.go), carved from chunks, and goes
// through the same ownership race, owner scan, live-owner rule, cleaning
// claim and settle as a request, so the cleaner story of DESIGN.md §2
// carries over verbatim:
//
//	owner-agreement[slot][round]   — who owns a round of a slot, and the
//	                                 slot's member batch (ownerDecision.Batch)
//	outcome-agreement[slot][round] — commit (with the per-member result
//	                                 vector) or abort of the round
//
// The batch content is part of the round-1 ownership decision and is
// re-proposed verbatim by any cleaner that takes over a later round, so
// every round of a slot executes the same members. Undoable members are
// tagged (request ID, round) exactly as in the per-request plane: an
// aborted round's executions are cancelled under that round's tag and the
// next round re-executes under its own, so the reduction argument of §5.4
// is unchanged — per member. Idempotent members carry round 0 and collapse
// across rounds under rule 18.
//
// Slots apply in order at every replica. The owner applies its round after
// running its commits; every other apply is a decision of the cleaner's
// pass (cleanSlot), under the live-owner rule (ownerLive): a live owner's
// committed round is applied as read, and any other decided round is
// cleaned first, so its commit runs before any reply goes out.
//
// Exactly-once across slots: a member can be batched twice (a client retry
// landing at a second replica while the first replica's slot is still in
// flight). Slots execute in order, so when slot n executes, the requests
// finished by slots < n are known and identical at every replica; a member
// already finished by an earlier slot is not re-executed — its fixed result
// rides in the slot's result vector and is simply re-replied.
package core

import (
	"strconv"
	"time"

	"xability/internal/action"
	"xability/internal/obs"
	"xability/internal/vclock"
)

// BatchConfig tunes the batched/pipelined plane. The zero value disables
// it entirely (the per-request protocol runs unchanged). Enabled, each
// server gains the batcher — a Runner on the clock's pump, with no
// goroutine of its own — and one goroutine per slot it claims (runSlot);
// its cleaner's pass walks the slot log instead of the request table.
type BatchConfig struct {
	// Enabled switches the plane on.
	Enabled bool
	// MaxSize caps members per slot (default 16).
	MaxSize int
	// Window is the batching window: after the first pending request, the
	// batcher waits this long on the virtual clock for the batch to fill
	// before claiming a slot (default 100µs).
	Window time.Duration
	// Pipeline bounds how many slots this replica keeps in flight —
	// claimed but not yet applied — concurrently (default 1: batched but
	// unpipelined).
	Pipeline int
}

func (b BatchConfig) withDefaults() BatchConfig {
	if !b.Enabled {
		return BatchConfig{}
	}
	if b.MaxSize <= 0 {
		b.MaxSize = 16
	}
	if b.Window <= 0 {
		b.Window = 100 * time.Microsecond
	}
	if b.Pipeline <= 0 {
		b.Pipeline = 1
	}
	return b
}

// slotOutcome is the outcome-agreement value of one (slot, round): commit
// with the per-member result vector (parallel to the decided batch), or a
// cleaning-mode abort.
type slotOutcome struct {
	Outcome string // "commit" or "abort"
	Values  []action.Value
}

// slotID names a slot's consensus instances. The "slot#" prefix keeps the
// namespace disjoint from client request IDs ("<client>-<seq>").
func slotID(n int) string { return "slot#" + strconv.Itoa(n) }

// slotState is a replica's view of the slot log, and the batcher that
// extends it on the clock's pump.
type slotState struct {
	cond *vclock.Cond

	pending  []SubmitPayload // arrival-ordered candidates for the next batch
	next     int             // next slot index this replica will claim
	known    int             // lowest slot index not known decided elsewhere
	execNext int             // first slot not yet applied locally
	inflight int             // slots claimed here and not yet resolved
	// logs holds the slots' round logs by index, logChunk to an
	// allocation (slotLog). Not durable: the batched plane is an in-memory
	// baseline, restart is unsupported there.
	logs []*[logChunk]roundLog

	batcher slotBatcher
}

// logChunk is how many slot round logs one allocation carves out, as
// consensus.LocalProvider carves its objects: a slot costs no allocation
// of its own.
const logChunk = 8

func newSlotState(s *Server) *slotState {
	return &slotState{cond: s.clk.NewCond(nil), batcher: slotBatcher{s: s}}
}

// slotLog returns slot n's round log, carving a chunk the first time an
// index past the carved ones is asked for.
func (s *Server) slotLog(n int) *roundLog {
	ss := s.slots
	for len(ss.logs) <= n/logChunk {
		ss.logs = append(ss.logs, new([logChunk]roundLog))
	}
	rl := &ss.logs[n/logChunk][n%logChunk]
	if rl.id == "" {
		rl.id = slotID(n)
	}
	return rl
}

// enqueue admits a submitted request to this replica's batched plane:
// note it (for re-reply bookkeeping), answer immediately if already
// finished, otherwise add it to the pending batch unless some batch or
// slot already holds it.
func (s *Server) enqueue(p SubmitPayload) {
	st, _ := s.noteRequest(p.Req, p.Client)
	st.direct = true
	if st.done {
		s.ep.Send(p.Client, MsgResult, ResultPayload{ReqID: p.Req.ID, Value: st.result})
		return
	}
	if st.queued {
		return // already pending here or riding in a known slot
	}
	st.queued = true
	s.slots.pending = append(s.slots.pending, p)
	s.slots.cond.Broadcast()
}

// slotBatcher forms slots, a step machine on the clock's pump: wait for a
// pending request, let the window fill the batch, wait for a pipeline
// place, claim the next log index, and launch the slot's round 1 as
// prospective owner (formSlot). Its three waits are a cond wait for a
// pending request and one for a pipeline place, each timing out after
// cleanInterval, and the window, a plain delay; after each cond wake, and
// at the head of its loop, it checks for a stop.
type slotBatcher struct {
	s    *Server
	wait batchWait // the wait the next run resumes from
}

type batchWait uint8

const (
	batchHead    batchWait = iota // the loop's head (the first run, and after a slot)
	batchPending                  // woken while waiting for a pending request
	batchWindow                   // the window elapsed
	batchBound                    // woken while waiting for a pipeline place
)

// Run implements vclock.Runner.
func (b *slotBatcher) Run() {
	s, ss := b.s, b.s.slots
	for {
		if b.wait != batchWindow && s.stopped {
			return
		}
		switch b.wait {
		case batchHead, batchPending:
			if len(ss.pending) == 0 {
				b.wait = batchPending
				ss.cond.WaitRunner(cleanInterval, b)
				return
			}
			// Batching window: accumulate concurrent arrivals.
			b.wait = batchWindow
			s.clk.AfterRunner(s.batch.Window, b)
			return
		case batchWindow, batchBound:
			if ss.inflight >= s.batch.Pipeline {
				b.wait = batchBound
				ss.cond.WaitRunner(cleanInterval, b)
				return
			}
			b.wait = batchHead
			s.formSlot()
		}
	}
}

// formSlot drains up to MaxSize pending members into the next slot and
// spawns its round 1, which blocks in Propose and the execution gate.
func (s *Server) formSlot() {
	ss := s.slots
	// Skip members an earlier slot already finished (their clients were
	// answered at apply time).
	batch := make([]SubmitPayload, 0, s.batch.MaxSize)
	rest := ss.pending[:0]
	for _, m := range ss.pending {
		if len(batch) >= s.batch.MaxSize {
			rest = append(rest, m)
			continue
		}
		if s.finishedReq(m.Req.ID) {
			continue
		}
		batch = append(batch, m)
	}
	ss.pending = rest
	if len(batch) == 0 {
		return
	}
	if ss.next < ss.known {
		ss.next = ss.known
	}
	n := ss.next
	ss.next++
	ss.inflight++
	s.m.Inc(obs.BatchSlots)
	s.m.Add(obs.BatchReqs, int64(len(batch)))
	s.m.SetMax(obs.GaugeBatchMax, int64(len(batch)))
	s.m.SetMax(obs.GaugePipelineDepth, int64(ss.inflight))

	s.clk.Go(func() {
		s.runSlot(n, 1, batch)
		ss.inflight--
		ss.cond.Broadcast()
	})
}

func (s *Server) finishedReq(id string) bool {
	st := s.active[id]
	return st != nil && st.done
}

// runSlot is process-request at slot granularity: race for ownership of
// the round (carrying the batch), and if we win, wait for the in-order
// execution gate, execute members in batch order, coordinate the slot's
// outcome, and apply/reply.
func (s *Server) runSlot(n, round int, batch []SubmitPayload) {
	rl := s.slotLog(n)
	od, won := s.race(rl, round, ownerDecision{Owner: s.id, Batch: batch})
	if !won {
		if od.Owner != "" {
			// Lost the log-index race. Members of our proposal absent from
			// the winning batch go back to pending for the next slot; the
			// winner's slot is the cleaner's to apply or clean.
			s.noteKnown(n + 1)
			s.requeueMissing(batch, od.Batch)
		}
		return
	}
	// The round is driven until this returns, so the cleaner's walk leaves
	// it to us.
	defer s.release(rl, round)

	// In-order execution gate: effects commit in slot order, so we execute
	// only once every earlier slot has been applied locally.
	if !s.waitExec(n) {
		return
	}

	vals := make([]action.Value, len(od.Batch))
	for i, m := range od.Batch {
		if j := firstIndex(od.Batch, i); j >= 0 {
			vals[i] = vals[j] // duplicate within the batch
			continue
		}
		if res, done := s.finishedBefore(m.Req.ID, n); done {
			vals[i] = res // finished by an earlier slot: re-reply only
			continue
		}
		res, ok := s.executeUntilSuccess(s.taggedFor(m.Req, round))
		if !ok {
			return // crashed mid-execution
		}
		vals[i] = res
	}

	out := s.slotCoordination(n, rl, round, od.Batch, slotOutcome{Outcome: "commit", Values: vals})
	if out.Outcome == "commit" && !s.stopped {
		s.applySlot(n, od.Batch, out.Values, true)
	}
}

// firstIndex returns the index of an earlier member with the same request
// ID, or -1 if members[i] is its batch's first occurrence.
func firstIndex(members []SubmitPayload, i int) int {
	for j := 0; j < i; j++ {
		if members[j].Req.ID == members[i].Req.ID {
			return j
		}
	}
	return -1
}

// finishedBefore reports the fixed result of a request finished by a slot
// earlier than n. Slots apply in order, so this classification is the same
// at every replica evaluating slot n.
func (s *Server) finishedBefore(id string, n int) (action.Value, bool) {
	st := s.active[id]
	if st != nil && st.done && st.doneSlot >= 0 && st.doneSlot < n {
		return st.result, true
	}
	return "", false
}

func (s *Server) noteKnown(n int) { s.slots.known = max(s.slots.known, n) }

// requeueMissing returns members of a losing batch proposal that the
// winning batch does not carry to the pending queue.
func (s *Server) requeueMissing(ours, winners []SubmitPayload) {
	ss := s.slots
	added := false
	for _, m := range ours {
		carried := false
		for _, w := range winners {
			if w.Req.ID == m.Req.ID {
				carried = true
				break
			}
		}
		if !carried {
			ss.pending = append(ss.pending, m)
			added = true
		}
	}
	if added {
		ss.cond.Broadcast()
	}
}

// waitExec blocks until every slot below n has been applied locally.
// Reports false if the server stopped while waiting.
func (s *Server) waitExec(n int) bool {
	ss := s.slots
	for ss.execNext < n {
		if s.stopped {
			return false
		}
		ss.cond.WaitTimeout(cleanInterval)
	}
	return ss.execNext == n // a later apply already passed n: stale round
}

// slotCoordination is result-coordination at slot granularity: agree on
// commit (with the result vector) or abort for one round of a slot. On a
// decided abort every undoable member this round may have executed is
// cancelled under the round's tag — at the losing owner and at the
// aborting cleaner alike, mirroring the per-request plane. On a decided
// commit the undoable members executed this round get their commit
// action: each first occurrence not finished by a slot before n, the
// members the owner executed — a commit decision proves it executed them
// all. Callers have applied every slot before n, so the set is the same
// at the owner and at a cleaner.
func (s *Server) slotCoordination(n int, rl *roundLog, round int, batch []SubmitPayload, proposal slotOutcome) slotOutcome {
	decided := s.propose(outcomeKey(rl.id, round), proposal)
	out, ok := decided.(slotOutcome)
	if !ok {
		return slotOutcome{Outcome: "abort"}
	}
	if out.Outcome == "abort" {
		for _, m := range batch {
			if s.mach.IsUndoable(m.Req) {
				s.settle(s.taggedFor(m.Req, round), false)
			}
		}
		return out
	}
	for i, m := range batch {
		if !s.mach.IsUndoable(m.Req) || firstIndex(batch, i) >= 0 {
			continue
		}
		if _, done := s.finishedBefore(m.Req.ID, n); done {
			continue
		}
		s.settle(s.taggedFor(m.Req, round), true)
	}
	return out
}

// applySlot folds a committed slot into the local replica in slot order:
// record the result of each first-occurrence member not finished by an
// earlier slot for re-submissions, reply, and open the gate for the next
// slot. Only a round whose commit has run here or at a live owner is
// applied: by runSlot after its commits, by the cleaner after it ran a
// decided commit itself, or by the cleaner's walk from a live owner's
// committed round.
//
// Replies: with all set — the owner, or a cleaner that ran the commit —
// every member's client is answered; otherwise only members whose submit
// this replica received directly. That is exactly the replica a client
// may be awaiting, so a reply the owner's link black-holed still arrives,
// from a live owner's round only, as Server.owe delivers one on the
// request plane.
func (s *Server) applySlot(n int, batch []SubmitPayload, vals []action.Value, all bool) {
	for i, m := range batch {
		if firstIndex(batch, i) >= 0 {
			if all {
				s.ep.Send(m.Client, MsgResult, ResultPayload{ReqID: m.Req.ID, Value: vals[i]})
			}
			continue
		}
		st, _ := s.noteRequest(m.Req, m.Client)
		if dupEarlier := st.done && st.doneSlot >= 0 && st.doneSlot < n; !dupEarlier {
			st.done = true      //xvet:ok durablewrite batched plane is an in-memory baseline: restart is unsupported there, nothing to persist
			st.result = vals[i] //xvet:ok durablewrite batched plane is an in-memory baseline: restart is unsupported there, nothing to persist
			st.doneSlot = n
		}
		if all || st.direct {
			s.ep.Send(m.Client, MsgResult, ResultPayload{ReqID: m.Req.ID, Value: vals[i]})
		}
	}
	ss := s.slots
	if ss.execNext == n {
		ss.execNext = n + 1
	}
	ss.known = max(ss.known, n+1)
	ss.cond.Broadcast()
}

// cleanSlot is the cleaner's batched-plane decision, a walk of the slot
// log from the first unapplied slot — in-order execution means only it
// gates progress — reading each slot's latest decided round as
// cleanRequest reads a request's, under the same live-owner rule
// (ownerLive):
//   - a live owner's round is read as it stands: another replica's is
//     applied here once it commits and the walk moves on, until then the
//     walk stops; one this replica's runSlot drives is left to it, which
//     applies after its commits;
//   - any other decided round — a suspected owner's, or one of this
//     replica's own that nothing drives any more — is the step returned
//     (cleaning): cleaning-mode coordination, which runs a decided commit
//     before the apply answers every member's client, or else the next
//     round of the same batch.
//
// Nil means there is nothing to do.
func (s *Server) cleanSlot() func() {
	ss := s.slots
	for {
		n := ss.execNext
		rl := s.slotLog(n)
		lastRound, od := s.lastOwner(rl)
		if lastRound == 0 {
			return nil // no such slot yet; nothing to clean
		}
		if !s.ownerLive(rl, lastRound, od) {
			return s.cleaning(rl, lastRound, od, nil, n)
		}
		if od.Owner == s.id {
			return nil // runSlot is driving it
		}
		out, _ := s.objectsAt(rl, lastRound, outcomeKey).result.Read()
		so, ok := out.(slotOutcome)
		if !ok || so.Outcome != "commit" {
			return nil // the live owner is still working on it
		}
		s.applySlot(n, od.Batch, so.Values, false)
	}
}

// cleanSlotRound is cleaning mode on the slot plane (cleaning): propose
// abort for the round, which keeps its owner from committing; a commit
// decided first has had its commits run here (settle) and is applied,
// answering every member's client; otherwise this replica races for the
// slot's next round with the same batch.
func (s *Server) cleanSlotRound(n int, rl *roundLog, round int, od ownerDecision) {
	out := s.slotCoordination(n, rl, round, od.Batch, slotOutcome{Outcome: "abort"})
	if s.stopped {
		return
	}
	if out.Outcome == "commit" {
		s.applySlot(n, od.Batch, out.Values, true)
		return
	}
	s.runSlot(n, round+1, od.Batch)
}
