package consensus

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xability/internal/vclock"
	"xability/internal/wal"
	"xability/internal/xrand"
)

// ctRecoveredState runs the real recovery path over a log and extracts
// the acceptor state a restarted node acts on. The estimate of a decided
// instance is normalized away: the fold keeps just the decision (a
// decided instance answers every later message with it and never
// consults its estimate again), so the pre-decision estimate is exactly
// the state a node cannot distinguish — the equivalence claim is over
// the distinguishable rest.
type ctInstState struct {
	HasEst   bool
	Estimate any
	TS       int
	Decided  bool
	Decision any
}

func ctRecoveredState(l *wal.Log) map[Key]ctInstState {
	n := &Node{instances: make(map[Key]*ctInstance), clk: vclock.NewVirtual()}
	n.log = l
	n.Recover()
	out := make(map[Key]ctInstState, len(n.instances))
	for k, inst := range n.instances {
		st := ctInstState{
			HasEst:   inst.hasEst,
			Estimate: inst.estimate,
			TS:       int(inst.ts),
			Decided:  inst.decided,
			Decision: inst.decision,
		}
		if st.Decided {
			st.HasEst, st.Estimate, st.TS = false, nil, 0
		}
		out[k] = st
	}
	return out
}

// randomCTStream draws a plausible acceptor record stream: estimates with
// monotone-ish timestamps and occasional decisions, over a bounded pool
// of instances. Replay semantics are last-writer-wins, so arbitrary
// interleavings are legal input for the fold.
func randomCTStream(rng *rand.Rand, n int) []wal.Record {
	recs := make([]wal.Record, 0, n)
	for i := 0; i < n; i++ {
		space := uint8(rng.Intn(3))
		key := fmt.Sprintf("req-%d", rng.Intn(4))
		round := int32(rng.Intn(3))
		if rng.Intn(4) == 0 {
			recs = append(recs, wal.Record{
				Kind: recDecision, Key: key, Space: space, Round: round,
				Val: fmt.Sprintf("dec-%d", rng.Intn(8)),
			})
			continue
		}
		recs = append(recs, wal.Record{
			Kind: recEstimate, Key: key, Space: space, Round: round,
			Aux: int32(rng.Intn(6)), Val: fmt.Sprintf("est-%d", rng.Intn(8)),
		})
	}
	return recs
}

// TestCTCompactReplayEquivalence is the fold's contract as a property
// test: for random acceptor streams and random compaction points,
// recovering from a log that compacted mid-stream (snapshot + suffix,
// through the real Log.Compact machinery, snapshot marker included) must
// rebuild exactly the state of recovering from the uncompacted log.
func TestCTCompactReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		stream := randomCTStream(rng, 30+rng.Intn(120))
		cuts := map[int]bool{}
		for c := 0; c < 1+rng.Intn(3); c++ {
			cuts[rng.Intn(len(stream))] = true
		}

		store := wal.NewStore(vclock.NewVirtual(), wal.Config{})
		full := store.Log("full")
		fold := store.Log("fold")
		fold.SetCompactor(ctCompact)
		for i, r := range stream {
			full.Append(r)
			fold.Append(r)
			if cuts[i] {
				fold.Compact()
			}
		}

		want := ctRecoveredState(full)
		got := ctRecoveredState(fold)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: compacted recovery diverges from full-log recovery\nfull: %+v\nfold: %+v",
				seed, want, got)
		}
	}
}

// TestCTCompactBoundsLiveLog pins the size claim: with automatic
// compaction armed, a log fed an unbounded stream over a bounded
// instance pool stays O(live state) — at most one record per instance
// plus the threshold's worth of fresh appends — instead of O(history).
func TestCTCompactBoundsLiveLog(t *testing.T) {
	const (
		appends   = 2000
		threshold = 16
	)
	rng := xrand.New(7)
	store := wal.NewStore(vclock.NewVirtual(), wal.Config{CompactThreshold: threshold})
	l := store.Log("acceptor")
	l.SetCompactor(ctCompact)

	instances := map[Key]bool{}
	stream := randomCTStream(rng, appends)
	for _, r := range stream {
		l.Append(r)
		instances[Key{Space: Space(r.Space), ID: r.Key, Round: r.Round}] = true
		if bound := len(instances) + threshold + 2; l.Len() > bound {
			t.Fatalf("live log grew to %d records over %d instances (bound %d): compaction is not holding",
				l.Len(), len(instances), bound)
		}
	}
	if l.Installs() == 0 {
		t.Fatal("no snapshot installed across the stream; the threshold never triggered")
	}
	l.Compact()
	if l.Len() > len(instances)+1 {
		t.Errorf("fully compacted log holds %d records over %d instances, want at most one per instance plus the marker",
			l.Len(), len(instances))
	}
	if st := store.Stats(); st.CompactedRecords == 0 || st.LiveRecords != l.Len() {
		t.Errorf("stats disagree with the log: %+v vs len %d", st, l.Len())
	}
}
