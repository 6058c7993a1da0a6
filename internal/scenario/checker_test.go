package scenario

import (
	"math/rand"
	"reflect"
	"testing"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/verify"
	"xability/internal/xrand"
)

// TestCheckerReuseLeaksNothing holds a reused verify.Checker to a fresh
// one — which is what verify.Check is — report for report, field by field.
// One Checker checks a shuffled sequence of the group runs execute
// checks (nice, sequence, open-loop-batch and each shard-power-cycle
// group, seeds 1–3) and of damaged variants of them: a subset of the
// requests or two runs' requests and histories joined (so request and
// action counts grow and shrink from one check to the next), untagged and
// repeated requests (keys several requests share), completions stripped of
// their annotation (attributed through the open-start stacks), lost,
// repeated and swapped events, the other R3 mode, and another registry
// (a rebuilt normalizer), one that lacks an action of the run.
func TestCheckerReuseLeaksNothing(t *testing.T) {
	var recorded []verify.Run
	for _, name := range []string{"nice", "sequence", "open-loop-batch", "shard-power-cycle"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			_, d, l := play(sc, seed, RunOptions{}, &runScratch{})
			for i := range d.members {
				recorded = append(recorded, d.members[i].run(l.open))
			}
		}
	}
	rng := xrand.New(39)
	runs := append([]verify.Run(nil), recorded...)
	for len(runs) < 40*len(recorded) {
		runs = append(runs, damagedRun(rng, recorded[rng.Intn(len(recorded))], recorded[rng.Intn(len(recorded))]))
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })

	var reused verify.Checker
	xable := 0
	for i, run := range runs {
		got, want := reused.Check(run), new(verify.Checker).Check(run)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%d requests, %d events): the reused Checker reports\n%+v\na fresh one\n%+v",
				i, len(run.Requests), len(run.History), got, want)
		}
		if want.R3Projected {
			xable++
		}
	}
	t.Logf("%d runs (%d recorded), %d x-able", len(runs), len(recorded), xable)
	if xable < len(recorded) || xable > len(runs)*9/10 {
		t.Errorf("%d of %d runs x-able: the variants no longer exercise both verdicts", xable, len(runs))
	}
}

// damagedRun returns a variant of run a, sometimes joined with run b.
func damagedRun(rng *rand.Rand, a, b verify.Run) verify.Run {
	v := a
	v.Requests = append([]action.Request(nil), a.Requests...)
	v.Replies = append([]action.Value(nil), a.Replies...)
	v.History = a.History.Clone()
	if rng.Intn(4) == 0 { // two runs' worth
		v.Requests = append(v.Requests, b.Requests...)
		v.Replies = append(v.Replies, b.Replies...)
		v.History = append(v.History, b.History...)
	}
	if len(v.Requests) > 1 && rng.Intn(3) == 0 { // a subset
		lo := rng.Intn(len(v.Requests))
		hi := lo + 1 + rng.Intn(len(v.Requests)-lo)
		v.Requests, v.Replies = v.Requests[lo:hi], v.Replies[lo:min(hi, len(v.Replies))]
	}
	for r := range v.Requests {
		switch rng.Intn(12) {
		case 0:
			v.Requests[r].ID = "" // keyed by input alone
		case 1:
			v.Requests[r] = v.Requests[rng.Intn(len(v.Requests))] // repeated
		}
	}
	for i := range v.History {
		if v.History[i].Type == event.Complete && rng.Intn(3) == 0 {
			v.History[i].Annotation = ""
		}
	}
	for n := rng.Intn(3); n > 0 && len(v.History) > 1; n-- {
		i := rng.Intn(len(v.History) - 1)
		switch rng.Intn(3) {
		case 0:
			v.History = append(v.History[:i:i], v.History[i+1:]...)
		case 1:
			v.History = append(v.History[:i+1:i+1], v.History[i:]...)
		case 2:
			v.History[i], v.History[i+1] = v.History[i+1], v.History[i]
		}
	}
	if rng.Intn(4) == 0 {
		v.Concurrent = !v.Concurrent
	}
	if rng.Intn(6) == 0 {
		v.Registry = otherRegistry(rng.Intn(2) == 0)
	}
	return v
}

// otherRegistry is the workload's vocabulary in a registry of its own, or
// that without "read".
func otherRegistry(withRead bool) *action.Registry {
	reg := action.NewRegistry()
	if withRead {
		reg.MustRegister("read", action.KindIdempotent)
	}
	reg.MustRegister("token", action.KindIdempotent)
	reg.MustRegister("debit", action.KindUndoable)
	return reg
}
