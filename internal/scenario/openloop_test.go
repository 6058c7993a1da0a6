package scenario

import (
	"reflect"
	"testing"
)

// TestBatchedScenarioRates runs the closed-loop slot-plane scenarios
// across a handful of seeds: the batched/pipelined protocol must stay
// exactly-once under the same adversarial schedules the per-request plane
// survives, with the strict (sequential) verifier still in force.
func TestBatchedScenarios(t *testing.T) {
	for _, name := range []string{"batch-nice", "batch-crash-failover", "batch-storm-hb"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for seed := int64(1); seed <= 5; seed++ {
			o := Execute(sc, seed)
			if !o.XAble || !o.Replied {
				t.Errorf("%s seed %d: xable=%v replied=%v report=%+v",
					name, seed, o.XAble, o.Replied, o.Report)
			}
		}
	}
}

// TestOpenLoopScenarios runs the open-loop scenarios: every arrival's
// session must complete with a reply, the run must verify under the
// concurrent per-request relaxation, and the latency summary must cover
// every completed session.
func TestOpenLoopScenarios(t *testing.T) {
	for _, name := range []string{"open-loop-nice", "open-loop-batch", "shard-open-loop"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			o := Execute(sc, seed)
			if !o.XAble || !o.Replied {
				t.Errorf("%s seed %d: xable=%v replied=%v report=%+v routing=%v",
					name, seed, o.XAble, o.Replied, o.Report, o.RoutingExact)
			}
			if o.Requests == 0 {
				t.Errorf("%s seed %d: generated no arrivals", name, seed)
			}
			if o.Latency.Count != o.Requests {
				t.Errorf("%s seed %d: latency summary covers %d sessions, %d arrived",
					name, seed, o.Latency.Count, o.Requests)
			}
			if o.EffectsInForce != o.Requests {
				t.Errorf("%s seed %d: %d effects in force for %d requests",
					name, seed, o.EffectsInForce, o.Requests)
			}
		}
	}
}

// TestBatchedDeterministicReplay pins byte-determinism of the throughput
// plane: a seeded batched/pipelined run executed twice yields deeply equal
// outcomes — Messages, SimTime, latency percentiles, effects included.
// The list crosses the new planes: closed-loop batched, batched under
// endogenous suspicion storms, open-loop batched, and the sharded
// open-loop composition.
func TestBatchedDeterministicReplay(t *testing.T) {
	for _, name := range []string{"batch-nice", "batch-storm-hb", "open-loop-batch", "shard-open-loop"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			a := Execute(sc, seed)
			b := Execute(sc, seed)
			a.History, b.History = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: reruns diverge:\nfirst:  %+v\nsecond: %+v", name, seed, a, b)
			}
		}
	}
}

// TestOpenLoopDurableWritesWAL pins that Durable reaches an open-loop
// deployment and that its storage activity is reported: the single-cluster
// open-loop run used to be built without stable storage, and neither
// open-loop run reported WAL counters. One driver assembles one config, so
// both shapes must now show appends (and stay exactly-once).
func TestOpenLoopDurableWritesWAL(t *testing.T) {
	for _, shards := range []int{0, 2} {
		sc, _ := Get("open-loop-nice")
		sc.Name = "open-loop-durable"
		sc.Shards = shards
		sc.Durable = true
		o := Execute(sc, 1)
		if !o.XAble || !o.Replied {
			t.Errorf("shards=%d: xable=%v replied=%v", shards, o.XAble, o.Replied)
		}
		if o.WALAppends == 0 || o.WALLiveRecords == 0 {
			t.Errorf("shards=%d: durable open-loop run reports %d WAL appends, %d live records; want both > 0",
				shards, o.WALAppends, o.WALLiveRecords)
		}
	}
}
