package scenario

import (
	"testing"
	"time"

	"xability/internal/core"
)

// TestDecidedRoundsCommitBeforeReply replays every seed where a decided
// round was answered before its commit ran: the owner executed, the quorum
// decided commit, the owner crashed before committing, and a replica
// forwarded the decided result from the agreement arrays alone — on the
// durable plane the restarted owner's resume, on the in-memory plane
// (random-faults) a replica that owed the client a reply, while the
// crashed owner was already suspected, and on the slot plane every other
// replica, which applied and answered the committed slot whatever its
// owner's state. No decided round is answered that way any more: a resume
// cleans its own round like a takeover, an owed client is answered from
// the arrays only while the round's owner is live, a committed slot is
// applied from the arrays only while its owner is live, and the cleaner's
// coordination runs the commit before the reply goes out. Each run must
// be x-able, replied, not timed out and free of duplicate replays; the
// request-plane rows also hold one effect in force per request (the
// sharded workload has 12).
//
// The slot-plane rows run batch-crash-failover's batched plane on CT
// consensus under a seeded random fault schedule in place of its
// scripted crash (slotRandomFaults). The first block was not x-able
// while every replica applied a committed slot as soon as it read it; the
// second went unanswered then. Their workload mixes request kinds, so the
// effect count varies by seed and is not checked.
func TestDecidedRoundsCommitBeforeReply(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		effects  int // -1: not checked
		seeds    []int64
	}{
		{"restart-random", 1, []int64{1000880, 1000930, 1001362, 1002725, 1003790}},
		{"restart-random-majority", 1, []int64{1000506, 1000930, 1001362, 1002449, 1003790, 1003798}},
		{"restart-random-total", 1, []int64{
			751, 1299, 1670, 2055, 2524, 2776, 3863,
			1000036, 1000077, 1000456, 1000506, 1000542, 1000930, 1002084, 1002449, 1003790, 1003798,
		}},
		{"shard-restart-random", 12, []int64{336, 484, 605, 1000784, 1000930, 1003489, 1003798, 1003833}},
		{"random-faults", 1, []int64{2364, 2477, 3246, 1001169, 1001362, 1003648}},
		{"slot-random-faults", -1, []int64{
			17, 695, 803, 1362, 1491, 1761, 2142, 2276, 2289, 2364, 2399, 2764, 2849, 3246,
			1000997, 1001934, 1002243, 1002584, 1003508, 1003806,
		}},
		{"slot-random-faults", -1, []int64{
			183, 607, 857, 1004, 1244, 1559, 1574, 1783, 1977, 2087, 2727, 2826, 3021, 3451, 3856, 4043,
		}},
	} {
		sc, ok := Get(tc.scenario)
		if tc.scenario == "slot-random-faults" {
			sc, ok = slotRandomFaults(t), true
		}
		if !ok {
			t.Fatalf("%s not registered", tc.scenario)
		}
		for _, seed := range tc.seeds {
			o := Execute(sc, seed)
			if !o.XAble || !o.Replied || o.TimedOut || o.ReplayDuplicates != 0 ||
				(tc.effects >= 0 && o.EffectsInForce != tc.effects) {
				t.Errorf("%s seed %d: x-able=%v replied=%v timed-out=%v dups=%d effects-in-force=%d, want x-able, replied, in time, 0 dups (%d effects)",
					tc.scenario, seed, o.XAble, o.Replied, o.TimedOut, o.ReplayDuplicates, o.EffectsInForce, tc.effects)
			}
		}
	}
}

// slotRandomFaults is the slot-plane probe: batch-crash-failover's batched
// plane and workload on CT consensus, its scripted crash replaced by four
// random fault ops drawn from each seed. The deadline ends a run whose
// client would await forever, so a stuck slot fails the test instead of
// hanging it.
func slotRandomFaults(t *testing.T) Scenario {
	sc, ok := Get("batch-crash-failover")
	if !ok {
		t.Fatal("batch-crash-failover not registered")
	}
	sc.Name = "slot-random-faults"
	sc.Consensus = core.ConsensusCT
	sc.Plan = nil
	sc.RandomFaults = &RandomOptions{Ops: 4}
	sc.Settle = 20 * time.Millisecond
	sc.Deadline = 300 * time.Millisecond
	return sc
}
