package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xability/internal/action"
	"xability/internal/consensus"
	"xability/internal/vclock"
	"xability/internal/wal"
	"xability/internal/xrand"
)

// serverRecoveredState runs the real recovery path over a log and
// extracts the state a restarted server acts on. Round guards of
// finished requests are excluded deliberately: the fold drops them as
// dead weight (a recovered fin answers every later touch before any
// round is attempted), so they are exactly the state a server cannot
// distinguish — the equivalence claim is over the distinguishable rest.
type srvReqState struct {
	ID     string
	Client string
	Done   bool
	Result action.Value
}

type srvState struct {
	Order    []string
	Requests map[string]srvReqState
	Rounds   map[consensus.Key]bool
}

func serverRecoveredState(l *wal.Log) srvState {
	s := &Server{
		active:   make(map[string]*requestState),
		rounds:   make(map[consensus.Key]bool),
		inflight: make(map[consensus.Key]bool),
		log:      l,
	}
	s.Recover()
	st := srvState{
		Order:    append([]string(nil), s.order...),
		Requests: make(map[string]srvReqState, len(s.active)),
		Rounds:   make(map[consensus.Key]bool),
	}
	for id, rs := range s.active {
		st.Requests[id] = srvReqState{
			ID:     rs.req.ID,
			Client: string(rs.client),
			Done:   rs.done,
			Result: rs.result,
		}
	}
	for k := range s.rounds {
		if rs := s.active[k.ID]; rs != nil && rs.done {
			continue
		}
		st.Rounds[k] = true
	}
	return st
}

// randomServerStream draws a plausible server record stream over a
// bounded request pool: each request's req record precedes its rounds
// and finishes (persistRequest runs before anything else touches the
// request), rounds climb, and a finish may be re-persisted.
func randomServerStream(rng *rand.Rand, n int) []wal.Record {
	recs := make([]wal.Record, 0, n)
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("req-%d", rng.Intn(5))
		if !seen[id] {
			seen[id] = true
			recs = append(recs, wal.Record{
				Kind: recRequest, Key: id, Str: "client",
				Val: action.Request{ID: id, Action: "debit", Input: action.Value("acct-0:1")},
			})
			continue
		}
		if rng.Intn(3) == 0 {
			recs = append(recs, wal.Record{Kind: recFinish, Key: id, Str: fmt.Sprintf("res-%d", rng.Intn(4))})
			continue
		}
		recs = append(recs, wal.Record{Kind: recRound, Key: id, Round: int32(1 + rng.Intn(4))})
	}
	return recs
}

// TestServerCompactReplayEquivalence is serverCompact's contract as a
// property test: for random request histories and random compaction
// points, recovery from a log that compacted mid-stream (through the
// real Log.Compact machinery, snapshot marker included) must rebuild the
// same distinguishable server state as recovery from the full log.
func TestServerCompactReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		stream := randomServerStream(rng, 30+rng.Intn(120))
		cuts := map[int]bool{}
		for c := 0; c < 1+rng.Intn(3); c++ {
			cuts[rng.Intn(len(stream))] = true
		}

		store := wal.NewStore(vclock.NewVirtual(), wal.Config{})
		full := store.Log("full")
		fold := store.Log("fold")
		fold.SetCompactor(serverCompact)
		for i, r := range stream {
			full.Append(r)
			fold.Append(r)
			if cuts[i] {
				fold.Compact()
			}
		}

		want := serverRecoveredState(full)
		got := serverRecoveredState(fold)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: compacted recovery diverges from full-log recovery\nfull: %+v\nfold: %+v",
				seed, want, got)
		}
	}
}

// TestServerCompactBoundsLiveLog pins the size claim for the server's
// log: under automatic compaction an unbounded history over a bounded
// request pool stays O(live state).
func TestServerCompactBoundsLiveLog(t *testing.T) {
	const (
		appends   = 2000
		threshold = 16
	)
	rng := xrand.New(11)
	store := wal.NewStore(vclock.NewVirtual(), wal.Config{CompactThreshold: threshold})
	l := store.Log("server")
	l.SetCompactor(serverCompact)

	stream := randomServerStream(rng, appends)
	// Live state: one req record per request, plus its fin or its
	// distinct round guards — bounded by the pools in the generator
	// (5 requests × (1 req + 4 rounds + 1 fin)).
	const liveBound = 5 * 6
	for _, r := range stream {
		l.Append(r)
		if bound := liveBound + threshold + 2; l.Len() > bound {
			t.Fatalf("live log grew to %d records (bound %d): compaction is not holding", l.Len(), bound)
		}
	}
	if l.Installs() == 0 {
		t.Fatal("no snapshot installed across the stream; the threshold never triggered")
	}
	l.Compact()
	if l.Len() > liveBound+1 {
		t.Errorf("fully compacted log holds %d records, want at most live state plus the marker (%d)",
			l.Len(), liveBound+1)
	}
}
