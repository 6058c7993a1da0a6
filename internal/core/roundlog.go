package core

import (
	"xability/internal/action"
	"xability/internal/consensus"
	"xability/internal/obs"
)

// roundLog is Figure 6's round machinery for one request (protocol.go) or
// one slot (batch.go), written once for both planes: the ID the agreement
// instances are keyed by, the round guards, and the agreement objects the
// cleaner's scans have reached. requestState embeds one; the slot plane
// carves one per slot index from chunks (Server.slotLog).
type roundLog struct {
	id string
	// attempted and driving are sets of rounds 1..MaxRound, bit r-1 for
	// round r (roundBit). attempted is durable: the rounds this replica has
	// entered the ownership race of — on the request plane the attempt is
	// written ahead of the proposal (attempt), and the durablewrite
	// analyzer flags a write in a function that never persists. driving
	// marks the rounds this incarnation is driving — an owner executing,
	// or the cleaner's resume of an own round; deliberately not durable,
	// since a restarted incarnation starting with none is how the cleaner
	// tells "the owner died with the crash" from "the owner is still
	// working".
	attempted uint64 //xvet:durable
	driving   uint64
	objs      []roundObjects // agreement objects of the rounds a scan has reached
	// objs' first backing array: a scan rarely reaches past round 3 (a
	// takeover, then the undecided round after it), so the cache usually
	// costs no allocation of its own.
	objsBuf [3]roundObjects
}

// roundObjects is one round's agreement objects as the cleaner reads them:
// the owner-agreement object and, once asked for, the result- or
// outcome-agreement object.
type roundObjects struct{ owner, result consensus.Object }

// roundBit is round r's bit in a roundLog's round sets, for r in
// 1..MaxRound.
func roundBit(r int) uint64 { return 1 << (r - 1) }

// attempt is the round guard: each replica enters the ownership race of a
// round at most once, and attempt reports false for a second try. Without
// it a re-submission of an in-progress request to the replica that owns
// its round would read back its own ownership decision and execute the
// round a second time — a duplicate committed execution the calculus
// cannot reduce away. On the request plane the attempt is written ahead
// of the proposal: a replica that crashes between here and the decision
// must come back remembering it, or it would re-propose, read back its own
// ownership, and execute the round twice. The batched plane is an
// in-memory baseline and persists nothing.
func (s *Server) attempt(rl *roundLog, round int) bool {
	bit := roundBit(round)
	if rl.attempted&bit != 0 {
		return false
	}
	rl.attempted |= bit
	if !s.batch.Enabled {
		s.persistRound(ownerKey(rl.id, round))
	}
	return true
}

// race is Figure 6's ownership race for a round of rl: the guard
// (attempt), then a proposal of mine for the round's owner-agreement
// object. It returns the decided ownership — zero when the replica is
// stopped, past MaxRound, attempted the round before, or got no decision
// back — and whether this replica won it, in which case the round is
// claimed as driven and the winner releases it when done.
func (s *Server) race(rl *roundLog, round int, mine ownerDecision) (ownerDecision, bool) {
	if s.stopped || round > MaxRound || !s.attempt(rl, round) {
		return ownerDecision{}, false
	}
	od, _ := s.propose(ownerKey(rl.id, round), mine).(ownerDecision)
	if od.Owner != s.id {
		return od, false
	}
	s.claim(rl, round)
	return od, true
}

// claim sets round r's driving mark; it reports false if the round was
// driven already.
func (s *Server) claim(rl *roundLog, r int) bool {
	bit := roundBit(r)
	if rl.driving&bit != 0 {
		return false
	}
	rl.driving |= bit
	return true
}

// release clears round r's driving mark.
func (s *Server) release(rl *roundLog, r int) { rl.driving &^= roundBit(r) }

// dangling reports whether round r was attempted here and is not driven.
func (s *Server) dangling(rl *roundLog, r int) bool {
	bit := roundBit(r)
	return rl.attempted&bit != 0 && rl.driving&bit == 0
}

// objectsAt returns rl's round-r agreement objects, looking each up in
// the provider once per log: the owner object when a scan first reaches
// the round, the result or outcome object (key) when one first asks for
// it. Scans go up from round 1, so round r-1 is cached by then.
func (s *Server) objectsAt(rl *roundLog, r int, key func(string, int) consensus.Key) roundObjects {
	if rl.objs == nil {
		rl.objs = rl.objsBuf[:0]
	}
	if len(rl.objs) < r {
		rl.objs = append(rl.objs, roundObjects{owner: s.cons.Object(ownerKey(rl.id, r))})
	}
	o := &rl.objs[r-1]
	if key != nil && o.result == nil {
		o.result = s.cons.Object(key(rl.id, r))
	}
	return *o
}

// lastOwner is the cleaner's "let last-round be the largest defined index
// in owner-agreement", read through rl's cache: the latest decided round
// and its ownership decision; round 0 when nobody owns round 1 yet.
func (s *Server) lastOwner(rl *roundLog) (round int, od ownerDecision) {
	for r := 1; r <= MaxRound; r++ {
		v, decided := s.objectsAt(rl, r, nil).owner.Read()
		if !decided {
			break
		}
		round, od = r, v.(ownerDecision)
	}
	return round, od
}

// ownerLive is the live-owner rule (DESIGN §2 item 3): round r's owner,
// decided in od, is live as this replica sees it when it is another
// replica it does not suspect, or this one with the round still driven.
// Only a live owner's decided round is read as it stands — a request's
// result answered to a client this replica owes, a slot's commit applied;
// every other decided round is cleaned first (cleaning), which runs a
// decided commit before anything goes out.
func (s *Server) ownerLive(rl *roundLog, r int, od ownerDecision) bool {
	if od.Owner != s.id {
		return !s.det.Suspect(od.Owner)
	}
	return rl.driving&roundBit(r) != 0
}

// cleaning is the cleaner's claim on round r of rl, decided od, whose
// owner is not live. It returns the step that cleans the round — cleanRound
// for st's request, cleanSlotRound for slot n when st is nil — opened as a
// takeover of a suspected owner's round, counted and traced, or as the
// resume of a round this replica owns and nothing drives: a round its
// previous incarnation was driving when it crashed, which no other cleaner
// will touch, since correct detectors do not suspect a live, restarted
// replica. A resume is claimed through the driving mark here and released
// when its step ends; cleaning returns nil when an execution claimed the
// round since ownerLive looked.
func (s *Server) cleaning(rl *roundLog, r int, od ownerDecision, st *requestState, n int) func() {
	own := od.Owner == s.id
	if own && !s.claim(rl, r) {
		return nil
	}
	return func() {
		if own {
			s.tr.Instant(s.clk.Now(), string(s.id), "resume", rl.id)
			defer s.release(rl, r)
		} else {
			s.m.Inc(obs.Takeovers)
			s.tr.Instant(s.clk.Now(), string(s.id), "takeover", rl.id)
		}
		if st != nil {
			s.cleanRound(st, od, r)
		} else {
			s.cleanSlotRound(n, rl, r, od)
		}
	}
}

// settle runs the decided outcome of an undoable execution, exec tagged
// with its round: a commit runs its commit action; an abort fences the
// execution before cancelling it (testcancel, §5.3). The abort means the
// round's effect must never be in force, and the cancel alone only rolls
// back: without the fence an owner still inside execute-until-success
// reactivates the cancelled transaction on its next retry and re-applies
// the effect; if it then crashes before reading the abort, that effect is
// orphaned in force next to the succeeding round's commit.
func (s *Server) settle(exec action.Request, commit bool) {
	if commit {
		c, _ := s.mach.Commit(exec)
		s.executeUntilSuccess(c)
		return
	}
	s.mach.Env().FenceUndoable(exec.Action, exec.EffectiveInput())
	cancel, _ := s.mach.Cancel(exec)
	s.executeUntilSuccess(cancel)
}
