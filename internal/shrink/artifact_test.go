package shrink

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedArtifactsReplayXAble replays the committed shrink
// artifacts and holds each to its verdict at this tree. The first four
// are of a reply for a round decided commit whose commit never ran, and
// replay x-able now. In the two durable ones (seeds 451 and 751) a
// restarted owner resumed its round and replied; the resume now runs the
// commit in result coordination before replying. In random-faults seed 2364 (13 fault ops
// cut to 8 within the default step budget, not verified 1-minimal) the
// owner of the committed round crashes and both other replicas, which owe
// the client a reply, forwarded the result while suspecting it; they now
// leave that round to the takeover, whose result coordination commits.
// restart-random-total seed 1299 (15 fault ops cut to 3 and 61 deliveries
// to 20 within the default step budget, not verified 1-minimal) is the
// durable resume of seed 751's shape: replica 0 crashes and restarts, and
// its resume answered the client one cleaner tick later without the
// round's decided commit having run.
//
// shard-restart-random seed 3000561 is a sharded failure (13 fault ops cut
// to 6, all on shard 1, within the default step budget, not verified
// 1-minimal): shard 1 is not R3. It still reproduces at this tree, so its
// row expects the failure; ROADMAP B1's fix flips it to x-able.
func TestCommittedArtifactsReplayXAble(t *testing.T) {
	for _, tc := range []struct {
		name  string
		xable bool
	}{
		{"restart_random_seed451.shrink.json", true},
		{"restart_random_total_seed751.shrink.json", true},
		{"random_faults_seed2364.shrink.json", true},
		{"restart_random_total_seed1299.shrink.json", true},
		{"shard_restart_random_seed3000561.shrink.json", false},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.name))
		if err != nil {
			t.Fatal(err)
		}
		s, err := LoadShrinkLog(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// One JSON form of an entry: the artifact re-encodes to its bytes.
		var again bytes.Buffer
		enc := json.NewEncoder(&again)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again.Bytes()) {
			t.Errorf("%s: the artifact does not re-encode to its own bytes", tc.name)
		}
		o, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if o.XAble != tc.xable || !o.Replied || o.TimedOut {
			t.Errorf("%s: replay x-able=%v replied=%v timed-out=%v, want x-able=%v and replied",
				tc.name, o.XAble, o.Replied, o.TimedOut, tc.xable)
		}
	}
}
