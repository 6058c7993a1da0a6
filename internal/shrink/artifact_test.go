package shrink

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedArtifactsReplayXAble replays the two committed shrink
// artifacts of the durable plane's resume defect: in each, a restarted
// owner replied for a round decided commit whose commit never ran. The
// minimal schedules still drive the owner through that window, and the
// resume now runs the commit in result coordination before replying.
func TestCommittedArtifactsReplayXAble(t *testing.T) {
	for _, name := range []string{
		"restart_random_seed451.shrink.json",
		"restart_random_total_seed751.shrink.json",
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
