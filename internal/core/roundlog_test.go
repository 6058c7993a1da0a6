package core

import (
	"fmt"
	"testing"

	"xability/internal/action"
	"xability/internal/consensus"
	"xability/internal/simnet"
	"xability/internal/vclock"
	"xability/internal/wal"
)

// suspects is a detector that suspects exactly the replicas set to true.
type suspects map[simnet.ProcessID]bool

func (d suspects) Suspect(p simnet.ProcessID) bool { return d[p] }

// lostRaces is a provider whose every proposal loses to replica-1 and
// records, at each proposal, how many round records the log holds.
type lostRaces struct {
	log    *wal.Log
	rounds []int // round records in the log at each proposal
}

func (p *lostRaces) Object(consensus.Key) consensus.Object { return lostRace{p} }

type lostRace struct{ p *lostRaces }

func (o lostRace) Propose(any) any {
	o.p.rounds = append(o.p.rounds, roundRecords(o.p.log))
	return ownerDecision{Owner: "replica-1"}
}

func (o lostRace) Read() (any, bool) { return nil, false }

// roundRecords counts the round records in l (0 for no log).
func roundRecords(l *wal.Log) int {
	n := 0
	if l != nil {
		l.Replay(func(r wal.Record) {
			if r.Kind == recRound {
				n++
			}
		})
	}
	return n
}

// ruleServer is replica-0 with just what the round log's functions read:
// a detector, a provider and an optional log, on the request plane or,
// batched, the slot plane.
func ruleServer(batched bool, det suspects, cons consensus.Provider, l *wal.Log) *Server {
	s := &Server{id: "replica-0", det: det, cons: cons, log: l, active: make(map[string]*requestState)}
	if batched {
		s.batch = BatchConfig{Enabled: true}.withDefaults()
		s.slots = &slotState{}
	}
	return s
}

// planeLog returns the round log the server's plane keeps: request c-1's,
// or slot 3's.
func planeLog(s *Server) (*roundLog, *requestState) {
	if s.batch.Enabled {
		return s.slotLog(3), nil
	}
	st, _ := s.noteRequest(action.Request{ID: "c-1", Action: "debit", Input: "acct"}, "client")
	return &st.roundLog, st
}

// TestRoundLogSharedRule holds both planes' round logs to one rule, over
// owner (another replica or this one) × suspected × driving: another
// replica's round is live while it is not suspected, this replica's own
// while it is driven; a round whose owner is not live is cleaned — a
// takeover holds no claim, a resume claims the round, so a second
// cleaning claim is refused until it is released; and attempt enters a
// round once.
func TestRoundLogSharedRule(t *testing.T) {
	const r = 2
	for _, batched := range []bool{false, true} {
		for _, own := range []bool{false, true} {
			for _, suspected := range []bool{false, true} {
				for _, driving := range []bool{false, true} {
					name := fmt.Sprintf("batched=%v/own=%v/suspected=%v/driving=%v", batched, own, suspected, driving)
					owner := simnet.ProcessID("replica-1")
					if own {
						owner = "replica-0"
					}
					s := ruleServer(batched, suspects{owner: suspected}, nil, nil)
					rl, st := planeLog(s)
					if driving && !s.claim(rl, r) {
						t.Fatalf("%s: first claim refused", name)
					}
					od := ownerDecision{Owner: owner}
					live := !suspected
					if own {
						live = driving
					}
					if got := s.ownerLive(rl, r, od); got != live {
						t.Errorf("%s: ownerLive = %v, want %v", name, got, live)
					}
					marks := rl.driving
					step := s.cleaning(rl, r, od, st, 3)
					switch {
					case own && live:
						if step != nil {
							t.Errorf("%s: cleaning took a round its owner drives", name)
						}
					case own:
						if step == nil || !s.ownerLive(rl, r, od) {
							t.Errorf("%s: resume did not claim the round", name)
						}
						if s.cleaning(rl, r, od, st, 3) != nil {
							t.Errorf("%s: second cleaning claim not refused", name)
						}
						s.release(rl, r)
						if s.ownerLive(rl, r, od) || s.cleaning(rl, r, od, st, 3) == nil {
							t.Errorf("%s: released round not claimable again", name)
						}
					case !live:
						if step == nil || s.cleaning(rl, r, od, st, 3) == nil {
							t.Errorf("%s: takeover refused", name)
						}
						if rl.driving != marks {
							t.Errorf("%s: takeover moved the driving marks: %#x, want %#x", name, rl.driving, marks)
						}
					}
					if !s.attempt(rl, r) || s.attempt(rl, r) {
						t.Errorf("%s: attempt did not enter round %d exactly once", name, r)
					}
					if rl.attempted != roundBit(r) {
						t.Errorf("%s: attempted = %#x, want %#x", name, rl.attempted, roundBit(r))
					}
				}
			}
		}
	}
}

// TestRaceWritesAheadOnce pins the ownership race's write-ahead: a durable
// server on the request plane holds exactly one round record when it
// proposes, a batched one none (the slot plane is an in-memory baseline),
// and a server without a log proposes with nothing to write. A second race
// for the same round proposes and writes nothing.
func TestRaceWritesAheadOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
		batched bool
		want    int
	}{
		{"durable", true, false, 1},
		{"durable-batched", true, true, 0},
		{"no-log", false, false, 0},
	} {
		var l *wal.Log
		if tc.durable {
			l = wal.NewStore(vclock.NewVirtual(), wal.Config{}).Log("replica-0")
		}
		p := &lostRaces{log: l}
		s := ruleServer(tc.batched, suspects{}, p, l)
		rl, _ := planeLog(s)
		for i := 0; i < 2; i++ {
			od, won := s.race(rl, 1, ownerDecision{Owner: s.id})
			if won || (i == 0) != (od.Owner == "replica-1") {
				t.Errorf("%s: race %d = %+v won=%v, want a loss to replica-1 then a refusal", tc.name, i+1, od, won)
			}
		}
		if len(p.rounds) != 1 || p.rounds[0] != tc.want || roundRecords(l) != tc.want {
			t.Errorf("%s: round records at each proposal %v, after %d; want [%d], %d",
				tc.name, p.rounds, roundRecords(l), tc.want, tc.want)
		}
	}
}
