package verify

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/reduce"
)

func reg() *action.Registry {
	r := action.NewRegistry()
	r.MustRegister("read", action.KindIdempotent)
	r.MustRegister("debit", action.KindUndoable)
	return r
}

func TestCheckCleanRun(t *testing.T) {
	r := reg()
	req := action.NewRequest("read", "k").WithID("q1")
	ff, err := reduce.EventsOf(r, req, "v")
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(Run{
		Registry: r,
		Requests: []action.Request{req},
		Replies:  []action.Value{"v"},
		History:  ff,
	})
	if !rep.OK() || !rep.R3Strict || !rep.R2 || !rep.R4Consistent {
		t.Errorf("report = %+v", rep)
	}
}

func TestCheckRetriedRun(t *testing.T) {
	r := reg()
	req := action.NewRequest("read", "k").WithID("q1")
	iv := req.EffectiveInput()
	h := event.History{
		event.S("read", iv),
		event.S("read", iv),
		event.C("read", "v"),
	}
	rep := Check(Run{
		Registry: r,
		Requests: []action.Request{req},
		Replies:  []action.Value{"v"},
		History:  h,
	})
	if !rep.OK() || !rep.R3Strict {
		t.Errorf("retried run should verify: %+v", rep)
	}
}

func TestCheckMissingReplyFailsR2(t *testing.T) {
	r := reg()
	req := action.NewRequest("read", "k").WithID("q1")
	ff, _ := reduce.EventsOf(r, req, "v")
	rep := Check(Run{
		Registry: r,
		Requests: []action.Request{req},
		Replies:  nil,
		History:  ff,
	})
	if rep.R2 || rep.OK() {
		t.Errorf("missing reply must fail R2: %+v", rep)
	}
}

func TestCheckDuplicatedEffectFailsR3(t *testing.T) {
	r := reg()
	req := action.NewRequest("read", "k").WithID("q1")
	iv := req.EffectiveInput()
	// Two completed executions with diverging values: irreducible.
	h := event.History{
		event.S("read", iv), event.C("read", "v1"),
		event.S("read", iv), event.C("read", "v2"),
	}
	rep := Check(Run{
		Registry: r,
		Requests: []action.Request{req},
		Replies:  []action.Value{"v1"},
		History:  h,
	})
	if rep.R3Strict || rep.R3Projected || rep.OK() {
		t.Errorf("diverging duplicate must fail R3: %+v", rep)
	}
}

func TestCheckWrongReplyFailsR4(t *testing.T) {
	r := reg()
	req := action.NewRequest("read", "k").WithID("q1")
	ff, _ := reduce.EventsOf(r, req, "v")
	rep := Check(Run{
		Registry: r,
		Requests: []action.Request{req},
		Replies:  []action.Value{"not-v"},
		History:  ff,
	})
	if rep.R4Consistent {
		t.Errorf("reply differing from surviving output must fail R4 consistency: %+v", rep)
	}
}

func TestCheckPossibleReplyPredicate(t *testing.T) {
	r := reg()
	req := action.NewRequest("read", "k").WithID("q1")
	ff, _ := reduce.EventsOf(r, req, "v")
	rep := Check(Run{
		Registry:      r,
		Requests:      []action.Request{req},
		Replies:       []action.Value{"v"},
		History:       ff,
		PossibleReply: func(req action.Request, ov action.Value) bool { return false },
	})
	if rep.R4Possible {
		t.Errorf("rejecting predicate must fail R4Possible: %+v", rep)
	}
}

func TestCheckStragglerFallsBackToProjected(t *testing.T) {
	r := reg()
	// Request 1 has a duplicate completion that straggles past request 2's
	// events: strict R3 fails (no rule reorders across the pair), but the
	// per-request projection holds.
	q1 := action.NewRequest("read", "k1").WithID("q1")
	q2 := action.NewRequest("read", "k2").WithID("q2")
	iv1, iv2 := q1.EffectiveInput(), q2.EffectiveInput()
	h := event.History{
		event.S("read", iv1),
		event.S("read", iv1),
		event.C("read", "v1"),
		event.S("read", iv2),
		event.C("read", "v2"),
		event.C("read", "v1"), // straggler of q1's duplicate execution
	}
	rep := Check(Run{
		Registry: r,
		Requests: []action.Request{q1, q2},
		Replies:  []action.Value{"v1", "v2"},
		History:  h,
	})
	if rep.R3Strict {
		t.Error("straggler across requests should fail strict R3")
	}
	if !rep.R3Projected {
		t.Errorf("projection should tolerate the straggler: %+v", rep)
	}
	if !rep.OK() {
		t.Errorf("report should be OK overall: %+v", rep)
	}
}

func TestCheckUnknownActionReported(t *testing.T) {
	r := reg()
	req := action.NewRequest("ghost", "k").WithID("q1")
	rep := Check(Run{
		Registry: r,
		Requests: []action.Request{req},
		Replies:  []action.Value{"v"},
		History:  event.Lambda,
	})
	if rep.R3Strict || rep.R3Projected {
		t.Errorf("unknown action must not verify: %+v", rep)
	}
	if len(rep.Details) == 0 {
		t.Error("expected diagnostic details")
	}
}

func TestCheckSequenceOutputs(t *testing.T) {
	r := reg()
	q1 := action.NewRequest("debit", "a").WithID("q1")
	q2 := action.NewRequest("read", "a").WithID("q2")
	ff1, _ := reduce.EventsOf(r, q1.WithRound(1), "debited")
	ff2, _ := reduce.EventsOf(r, q2, "90")
	rep := Check(Run{
		Registry: r,
		Requests: []action.Request{q1, q2},
		Replies:  []action.Value{"debited", "90"},
		History:  ff1.Concat(ff2),
	})
	if !rep.OK() || !rep.R3Strict {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Outputs) != 2 || rep.Outputs[0] != "debited" || rep.Outputs[1] != "90" {
		t.Errorf("outputs = %v", rep.Outputs)
	}
}

// scenarioRun is a passing run shaped as a scenario run hands it over: every
// request tagged with its client ID, an undoable one with its round, and
// every completion annotated with the input it resolved.
func scenarioRun(t *testing.T, r *action.Registry, reqs ...action.Request) Run {
	t.Helper()
	run := Run{Registry: r}
	for i, req := range reqs {
		req = req.WithID(fmt.Sprintf("client-%d", i+1))
		round := req
		if k, _ := r.Kind(req.Action); k == action.KindUndoable {
			round = req.WithRound(1)
		}
		ov := action.Value(fmt.Sprintf("out-%d", i))
		ff, err := reduce.EventsOf(r, round, ov)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ff {
			if ff[j].Type == event.Complete {
				ff[j] = ff[j].WithAnnotation(string(ff[j-1].Value))
			}
		}
		run.Requests = append(run.Requests, req)
		run.Replies = append(run.Replies, ov)
		run.History = append(run.History, ff...)
	}
	return run
}

// TestCheckerReusedAllocBudget pins what checking a run costs on a reused
// Checker — its Report, and nothing per request: the strict check's and
// the projected check's output lists. The runs have the shapes of a nice
// seed (one debit) and a sequence seed (six requests, reads, a token and
// debits). Measured at 2 and 3 objects, the same under the race detector
// (20 and 28 for a fresh Check, which builds the normalizer and its
// scratch); the budgets are 5% above, rounded down.
func TestCheckerReusedAllocBudget(t *testing.T) {
	r := action.NewRegistry()
	r.MustRegister("read", action.KindIdempotent)
	r.MustRegister("token", action.KindIdempotent)
	r.MustRegister("debit", action.KindUndoable)
	for _, tc := range []struct {
		name   string
		run    Run
		budget float64
	}{
		{"nice", scenarioRun(t, r, action.NewRequest("debit", "acct-0x")), 2},
		{"sequence", scenarioRun(t, r,
			action.NewRequest("read", "acct-0x"), action.NewRequest("token", "acct-1x"),
			action.NewRequest("read", "acct-0x"), action.NewRequest("debit", "acct-0x"),
			action.NewRequest("read", "acct-1x"), action.NewRequest("debit", "acct-1x")), 3},
	} {
		var c Checker
		if rep := c.Check(tc.run); !rep.OK() || !rep.R3Strict {
			t.Fatalf("%s: report = %+v", tc.name, rep)
		}
		avg := testing.AllocsPerRun(20, func() { c.Check(tc.run) })
		t.Logf("%s: %.0f objects", tc.name, avg)
		if avg > tc.budget {
			t.Errorf("%s: a check on a reused Checker allocates %.0f objects, budget %.0f", tc.name, avg, tc.budget)
		}
	}
}

// TestCheckerReleasesHistory holds a Checker kept across runs, as a sweep
// worker keeps one, to letting go of each run's history: once Check
// returns, no string the Checker reaches — through every field, map and
// slice, up to each slice's capacity — shares storage with a value or an
// annotation of the history's events. (Action names are the vocabulary's,
// shared by every run.) Sequential and concurrent runs take different
// paths through the projection.
func TestCheckerReleasesHistory(t *testing.T) {
	r := reg()
	reqs := []action.Request{action.NewRequest("read", "k").WithID("q1"), action.NewRequest("debit", "a").WithID("q2")}
	com := reqs[1].Commit()
	var owned []string // the history's own strings
	own := func(s string) string {
		s = strings.Clone(s)
		owned = append(owned, s)
		return s
	}
	val := func(v action.Value) action.Value { return action.Value(own(string(v))) }
	hist := event.History{
		event.S("read", val(reqs[0].EffectiveInput())),
		event.S("read", val(reqs[0].EffectiveInput())),
		event.C("read", val("v")).WithAnnotation(own(string(reqs[0].EffectiveInput()))),
		event.S("debit", val(reqs[1].EffectiveInput())),
		event.C("debit", val("ok")).WithAnnotation(own(string(reqs[1].EffectiveInput()))),
		event.S(com.Action, val(com.EffectiveInput())),
		event.C(com.Action, action.Nil),
	}
	for _, concurrent := range []bool{false, true} {
		var c Checker
		run := Run{Registry: r, Requests: reqs, Replies: []action.Value{"v", "ok"}, History: hist, Concurrent: concurrent}
		if rep := c.Check(run); !rep.OK() {
			t.Fatalf("concurrent %v: report = %+v", concurrent, rep)
		}
		if at := reachesStrings(reflect.ValueOf(&c), owned, "c", map[uintptr]bool{}); at != "" {
			t.Errorf("concurrent %v: after Check the Checker still holds a string of the history, at %s", concurrent, at)
		}
	}
}

// reachesStrings returns the path of a string reachable from v whose bytes
// lie inside one of owned, or "" if there is none.
func reachesStrings(v reflect.Value, owned []string, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.String:
		s := v.String()
		if s == "" {
			return ""
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, o := range owned {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(o)))
			if lo <= p && p < lo+uintptr(len(o)) {
				return fmt.Sprintf("%s = %q", path, s)
			}
		}
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return reachesStrings(v.Elem(), owned, path, seen)
	case reflect.Interface:
		if !v.IsNil() {
			return reachesStrings(v.Elem(), owned, path, seen)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if at := reachesStrings(v.Field(i), owned, path+"."+v.Type().Field(i).Name, seen); at != "" {
				return at
			}
		}
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			if at := reachesStrings(v.Index(i), owned, fmt.Sprintf("%s[%d]", path, i), seen); at != "" {
				return at
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if at := reachesStrings(it.Key(), owned, path+"[key]", seen); at != "" {
				return at
			}
			if at := reachesStrings(it.Value(), owned, path+"[value]", seen); at != "" {
				return at
			}
		}
	}
	return ""
}
