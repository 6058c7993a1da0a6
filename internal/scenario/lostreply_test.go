package scenario

import (
	"testing"
	"time"

	"xability/internal/simnet"
)

// TestLostReplyResubmissionAnswered pins the answer a replica owes a
// client (core.Server.owe) against the liveness hole the seeded random
// fault generator found: the round owner's reply to the client is
// black-holed by the link plane, a transient client-side suspicion makes
// the client fail over and resubmit to a non-owner — which loses the
// round-1 ownership race — and by the time the owner's result is fixed,
// nobody suspects the owner, so no takeover ever fires. The
// resubmitted-to replica owes the client a reply: its cleaner's pass must
// read the live owner's round and forward the fixed result itself;
// without that the client awaits an unsuspected, silent replica forever.
func TestLostReplyResubmissionAnswered(t *testing.T) {
	r0 := simnet.ProcessID("replica-0")
	sc := Scenario{
		Name: "lost-reply-regression",
		// Stretch the owner's execution past the fault window so its
		// reply lands while the client⇄owner link is down.
		Failures: []Failure{{Action: "debit", Prob: 1, Budget: 6}},
		Plan: NewPlan().
			PartitionAt(time.Millisecond, []simnet.ProcessID{"client"}, []simnet.ProcessID{r0}).
			ClientSuspectAt(time.Millisecond, r0).
			UnsuspectAt(2*time.Millisecond, r0).
			HealAt(8 * time.Millisecond),
		Settle: 20 * time.Millisecond,
		// Fail fast instead of hanging the test if the owed answer regresses.
		Deadline: 200 * time.Millisecond,
	}
	for seed := int64(1); seed <= 10; seed++ {
		o := Execute(sc, seed)
		if o.TimedOut || !o.Replied {
			t.Fatalf("seed %d: timedout=%v replied=%v — lost reply was never forwarded", seed, o.TimedOut, o.Replied)
		}
		if !o.XAble {
			t.Errorf("seed %d: run answered but not x-able: %+v", seed, o.Report)
		}
		if o.EffectsInForce != 1 {
			t.Errorf("seed %d: effects in force = %d, want exactly 1", seed, o.EffectsInForce)
		}
	}
}
