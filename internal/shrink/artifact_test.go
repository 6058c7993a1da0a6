package shrink

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedArtifactsReplayXAble replays the committed shrink
// artifacts of a reply for a round decided commit whose commit never ran.
// In the two durable ones (seeds 451 and 751) a restarted owner resumed
// its round and replied; the resume now runs the commit in result
// coordination before replying. In random-faults seed 2364 (13 fault ops
// cut to 8 within the default step budget, not verified 1-minimal) the
// owner of the committed round crashes and both other replicas, which owe
// the client a reply, forwarded the result while suspecting it; they now
// leave that round to the takeover, whose result coordination commits.
// restart-random-total seed 1299 (15 fault ops cut to 3 and 61 deliveries
// to 20 within the default step budget, not verified 1-minimal) is the
// durable resume of seed 751's shape: replica 0 crashes and restarts, and
// its resume answered the client one cleaner tick later without the
// round's decided commit having run.
func TestCommittedArtifactsReplayXAble(t *testing.T) {
	for _, name := range []string{
		"restart_random_seed451.shrink.json",
		"restart_random_total_seed751.shrink.json",
		"random_faults_seed2364.shrink.json",
		"restart_random_total_seed1299.shrink.json",
	} {
		f, err := os.Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		s, err := LoadShrinkLog(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !o.XAble || !o.Replied || o.TimedOut {
			t.Errorf("%s: replay x-able=%v replied=%v timed-out=%v, want x-able and replied",
				name, o.XAble, o.Replied, o.TimedOut)
		}
	}
}
