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
// Fault tolerance reuses the per-request round machinery at slot
// granularity, so the cleaner story of DESIGN.md §2 carries over verbatim:
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
// Exactly-once across slots: a member can be batched twice (a client retry
// landing at a second replica while the first replica's slot is still in
// flight). Slots execute in order, so when slot n executes, the requests
// finished by slots < n are known and identical at every replica; a member
// already finished by an earlier slot is not re-executed — its fixed result
// rides in the slot's result vector and is simply re-replied.
package core

import (
	"strconv"
	"sync"
	"time"

	"xability/internal/action"
	"xability/internal/obs"
	"xability/internal/vclock"
)

// BatchConfig tunes the batched/pipelined plane. The zero value disables
// it entirely (the per-request protocol runs unchanged).
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

// slotState is a replica's view of the slot log.
type slotState struct {
	mu   sync.Mutex
	cond *vclock.Cond

	pending  []SubmitPayload // arrival-ordered candidates for the next batch
	next     int             // next slot index this replica will claim
	known    int             // lowest slot index not known decided elsewhere
	execNext int             // first slot not yet applied locally
	inflight int             // slots claimed here and not yet resolved
}

func newSlotState(clk *vclock.Virtual) *slotState {
	ss := &slotState{}
	ss.cond = clk.NewCond(&ss.mu)
	return ss
}

// enqueue admits a submitted request to this replica's batched plane:
// note it (for re-reply bookkeeping), answer immediately if already
// finished, otherwise add it to the pending batch unless some batch or
// slot already holds it.
func (s *Server) enqueue(p SubmitPayload) {
	st, _ := s.noteRequest(p.Req, p.Client)
	s.mu.Lock()
	st.direct = true
	if st.done {
		res := st.result
		s.mu.Unlock()
		s.ep.Send(p.Client, MsgResult, ResultPayload{ReqID: p.Req.ID, Value: res})
		return
	}
	if st.queued {
		s.mu.Unlock()
		return // already pending here or riding in a known slot
	}
	st.queued = true
	s.mu.Unlock()

	ss := s.slots
	ss.mu.Lock()
	ss.pending = append(ss.pending, p)
	ss.mu.Unlock()
	ss.cond.Broadcast()
}

// batcher forms slots: wait for a pending request, let the window fill the
// batch, wait for a pipeline slot, claim the next log index, and launch the
// slot's round 1 as prospective owner.
func (s *Server) batcher() {
	ss := s.slots
	for {
		if s.isStopped() {
			return
		}
		ss.mu.Lock()
		for len(ss.pending) == 0 {
			ss.cond.WaitTimeout(cleanInterval)
			if s.isStopped() {
				ss.mu.Unlock()
				return
			}
		}
		ss.mu.Unlock()

		// Batching window: accumulate concurrent arrivals.
		s.clk.Sleep(s.batch.Window)

		ss.mu.Lock()
		for ss.inflight >= s.batch.Pipeline {
			ss.cond.WaitTimeout(cleanInterval)
			if s.isStopped() {
				ss.mu.Unlock()
				return
			}
		}
		// Drain up to MaxSize members, skipping ones an earlier slot
		// already finished (their clients were answered at apply time).
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
			ss.mu.Unlock()
			continue
		}
		if ss.next < ss.known {
			ss.next = ss.known
		}
		n := ss.next
		ss.next++
		ss.inflight++
		depth := ss.inflight
		ss.mu.Unlock()
		s.m.Inc(obs.BatchSlots)
		s.m.Add(obs.BatchReqs, int64(len(batch)))
		s.m.SetMax(obs.GaugeBatchMax, int64(len(batch)))
		s.m.SetMax(obs.GaugePipelineDepth, int64(depth))

		s.clk.Go(func() {
			s.runSlot(n, 1, batch)
			ss.mu.Lock()
			ss.inflight--
			ss.mu.Unlock()
			ss.cond.Broadcast()
		})
	}
}

func (s *Server) finishedReq(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.active[id]
	return st != nil && st.done
}

// runSlot is process-request at slot granularity: propose ownership of the
// round (carrying the batch), and if we win, wait for the in-order
// execution gate, execute members in batch order, coordinate the slot's
// outcome, and apply/reply.
func (s *Server) runSlot(n, round int, batch []SubmitPayload) {
	if s.isStopped() || round > MaxRound {
		return
	}
	id := slotID(n)
	key := ownerKey(id, round)
	s.mu.Lock()
	if s.rounds[key] {
		s.mu.Unlock()
		return
	}
	s.rounds[key] = true //xvet:ok durablewrite batched plane is an in-memory baseline: restart is unsupported there, nothing to persist
	s.mu.Unlock()

	decided := s.propose(key, ownerDecision{Owner: s.id, Batch: batch})
	od, ok := decided.(ownerDecision)
	if !ok {
		return
	}
	if od.Owner != s.id {
		// Lost the log-index race. Members of our proposal absent from the
		// winning batch go back to pending for the next slot; the winner's
		// slot is watched by the follower and the cleaner.
		s.noteKnown(n + 1)
		s.requeueMissing(batch, od.Batch)
		return
	}

	// In-order execution gate: effects commit in slot order, so we execute
	// only once every earlier slot has been applied locally.
	if !s.waitExec(n) {
		return
	}

	vals := make([]action.Value, len(od.Batch))
	fresh := make([]bool, len(od.Batch))
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
		fresh[i] = true
	}

	out := s.slotCoordination(n, round, od.Batch, fresh, slotOutcome{Outcome: "commit", Values: vals})
	if out.Outcome == "commit" && !s.isStopped() {
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
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.active[id]
	if st != nil && st.done && st.doneSlot >= 0 && st.doneSlot < n {
		return st.result, true
	}
	return "", false
}

func (s *Server) noteKnown(n int) {
	ss := s.slots
	ss.mu.Lock()
	if ss.known < n {
		ss.known = n
	}
	ss.mu.Unlock()
}

// requeueMissing returns members of a losing batch proposal that the
// winning batch does not carry to the pending queue.
func (s *Server) requeueMissing(ours, winners []SubmitPayload) {
	ss := s.slots
	added := false
	ss.mu.Lock()
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
	ss.mu.Unlock()
	if added {
		ss.cond.Broadcast()
	}
}

// waitExec blocks until every slot below n has been applied locally.
// Reports false if the server stopped while waiting.
func (s *Server) waitExec(n int) bool {
	ss := s.slots
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for ss.execNext < n {
		if s.isStopped() {
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
// commit the undoable members executed this round get their commit action;
// fresh tells which those are (nil means "assume all non-duplicate
// members", the cleaner's conservative view — safe because a commit
// decision proves the owner executed every fresh member this round).
func (s *Server) slotCoordination(n, round int, batch []SubmitPayload, fresh []bool, proposal slotOutcome) slotOutcome {
	decided := s.propose(outcomeKey(slotID(n), round), proposal)
	out, ok := decided.(slotOutcome)
	if !ok {
		return slotOutcome{Outcome: "abort"}
	}
	if out.Outcome == "abort" {
		for _, m := range batch {
			if s.mach.IsUndoable(m.Req) {
				// Fence before cancelling (testcancel, §5.3), exactly as on
				// the per-request plane: without it a losing owner's retry
				// loop can reactivate the cancelled member and re-apply its
				// effect after this neutralization.
				exec := s.taggedFor(m.Req, round)
				s.mach.Env().FenceUndoable(exec.Action, exec.EffectiveInput())
				s.executeUntilSuccess(exec.Cancel())
			}
		}
		return out
	}
	for i, m := range batch {
		if !s.mach.IsUndoable(m.Req) {
			continue
		}
		isFresh := fresh == nil && firstIndex(batch, i) < 0
		if fresh != nil {
			isFresh = fresh[i]
		}
		if fresh == nil {
			if _, done := s.finishedBefore(m.Req.ID, n); done {
				isFresh = false
			}
		}
		if isFresh {
			s.executeUntilSuccess(s.taggedFor(m.Req, round).Commit())
		}
	}
	return out
}

// applySlot folds a committed slot into the local replica in slot order:
// record the result of each first-occurrence member not finished by an
// earlier slot for re-submissions, reply, and open the gate for the next
// slot.
//
// Replies: the committing owner answers every member's client; a
// non-owner answers only members whose submit it received directly —
// that is exactly the replica a client may be awaiting, which closes the
// black-holed-reply liveness hole without per-request watcher goroutines
// (the batched plane's analogue of awaitFixed).
func (s *Server) applySlot(n int, batch []SubmitPayload, vals []action.Value, owner bool) {
	for i, m := range batch {
		if firstIndex(batch, i) >= 0 {
			if owner {
				s.ep.Send(m.Client, MsgResult, ResultPayload{ReqID: m.Req.ID, Value: vals[i]})
			}
			continue
		}
		st, _ := s.noteRequest(m.Req, m.Client)
		s.mu.Lock()
		dupEarlier := st.done && st.doneSlot >= 0 && st.doneSlot < n
		if !dupEarlier {
			st.done = true      //xvet:ok durablewrite batched plane is an in-memory baseline: restart is unsupported there, nothing to persist
			st.result = vals[i] //xvet:ok durablewrite batched plane is an in-memory baseline: restart is unsupported there, nothing to persist
			st.doneSlot = n
		}
		direct := st.direct
		s.mu.Unlock()
		if owner || direct {
			s.ep.Send(m.Client, MsgResult, ResultPayload{ReqID: m.Req.ID, Value: vals[i]})
		}
	}
	ss := s.slots
	ss.mu.Lock()
	if ss.execNext == n {
		ss.execNext = n + 1
	}
	if ss.known < n+1 {
		ss.known = n + 1
	}
	ss.mu.Unlock()
	ss.cond.Broadcast()
}

// follower advances the local slot log through slots decided elsewhere:
// poll the consensus arrays for the first unapplied slot, and once some
// round of it commits, apply it in order. Owners apply their own slots
// directly; the follower is how the other replicas' re-reply state keeps
// up, and how a stalled client's replica learns results it did not compute
// (the batched plane has no per-request announce gossip).
func (s *Server) follower() {
	ss := s.slots
	for {
		if s.isStopped() {
			return
		}
		advanced := s.advanceSlot()
		if !advanced {
			ss.mu.Lock()
			ss.cond.WaitTimeout(cleanInterval)
			ss.mu.Unlock()
		}
	}
}

// advanceSlot tries to apply the first unapplied slot; reports whether it
// advanced the gate.
func (s *Server) advanceSlot() bool {
	ss := s.slots
	ss.mu.Lock()
	n := ss.execNext
	ss.mu.Unlock()

	id := slotID(n)
	for r := 1; r <= MaxRound; r++ {
		ov, decided := s.cons.Object(ownerKey(id, r)).Read()
		if !decided {
			return false // slot n has no round r (yet)
		}
		out, ok := s.cons.Object(outcomeKey(id, r)).Read()
		if !ok {
			return false // round r unresolved; commit/abort pending
		}
		so, good := out.(slotOutcome)
		if !good {
			return false
		}
		if so.Outcome != "commit" {
			continue // aborted round; a later round re-runs the batch
		}
		od, good := ov.(ownerDecision)
		if !good {
			return false
		}
		ss.mu.Lock()
		stale := ss.execNext != n
		ss.mu.Unlock()
		if !stale {
			s.applySlot(n, od.Batch, so.Values, false)
		}
		return true
	}
	return false
}

// cleanSlot is the cleaner's batched-plane decision: watch the first
// unapplied slot only — in-order execution means only it gates progress —
// and when the latest round's owner is suspected, return the takeover:
// neutralize that round (cleaning-mode abort) and run the next round of
// the same batch as owner. Nil means there is nothing to do.
func (s *Server) cleanSlot() func() {
	ss := s.slots
	ss.mu.Lock()
	n := ss.execNext
	ss.mu.Unlock()

	id := slotID(n)
	lastRound, od := s.lastOwner(id)
	if lastRound == 0 {
		return nil // no such slot yet; nothing to clean
	}
	if out, ok := s.cons.Object(outcomeKey(id, lastRound)).Read(); ok {
		if so, good := out.(slotOutcome); good && so.Outcome == "commit" {
			return nil // resolved; the follower applies and re-replies
		}
	}
	if od.Owner == s.id || !s.det.Suspect(od.Owner) {
		return nil
	}
	return func() {
		// Cleaning mode: prevent the suspected owner from enforcing a commit.
		s.m.Inc(obs.Takeovers)
		s.tr.Instant(s.clk.Now(), string(s.id), "takeover", id)
		out := s.slotCoordination(n, lastRound, od.Batch, nil, slotOutcome{Outcome: "abort"})
		if s.isStopped() {
			return
		}
		if out.Outcome == "abort" {
			s.runSlot(n, lastRound+1, od.Batch)
		}
		// On commit the follower path applies the slot and answers clients.
	}
}
