package scenario

import "testing"

// TestDecidedRoundsCommitBeforeReply replays every seed where a decided
// round was answered before its commit ran: the owner executed, the quorum
// decided commit, the owner crashed before committing, and a replica
// forwarded the decided result from the agreement arrays alone — on the
// durable plane the restarted owner's resume, on the in-memory plane
// (random-faults) a replica that owed the client a reply, while the
// crashed owner was already suspected. No decided round is answered that
// way any more: a resume cleans its own round like a takeover, an owed
// client is answered from the arrays only while the round's owner is
// live, and cleanRound's result coordination runs the commit before the
// reply goes out. Each run must be x-able, replied, and hold one effect
// in force per request (the sharded workload has 12).
func TestDecidedRoundsCommitBeforeReply(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		effects  int
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
	} {
		sc, ok := Get(tc.scenario)
		if !ok {
			t.Fatalf("%s not registered", tc.scenario)
		}
		for _, seed := range tc.seeds {
			o := Execute(sc, seed)
			if !o.XAble || !o.Replied || o.EffectsInForce != tc.effects {
				t.Errorf("%s seed %d: x-able=%v replied=%v effects-in-force=%d, want x-able, replied, %d",
					tc.scenario, seed, o.XAble, o.Replied, o.EffectsInForce, tc.effects)
			}
		}
	}
}
