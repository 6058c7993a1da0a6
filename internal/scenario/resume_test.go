package scenario

import "testing"

// TestResumedDecidedRoundsCommit replays every seed of the durable
// scenarios where a restarted owner's resume used to reply from the
// agreement arrays alone: the owner executed, the quorum decided commit,
// the owner crashed before committing, and on restart it forwarded the
// decided result without the commit ever running. The resume now cleans
// its own round like a takeover, so result coordination runs the commit
// before the reply goes out. Each run must be x-able, replied, and hold
// one effect in force per request (the sharded workload has 12).
func TestResumedDecidedRoundsCommit(t *testing.T) {
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
