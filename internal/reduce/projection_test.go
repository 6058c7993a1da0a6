package reduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/xrand"
)

// refProjection is one request's projection as the reference computes it:
// its own slice of events and its first kept completion.
type refProjection struct {
	events              event.History
	firstKeptCompletion int
}

// projectRef is the projection of h onto one request as it was computed
// before the single walk: a scan of the whole history that decides, event
// by event, whether this request keeps it. It is the definition project is
// tested against (O(|h|) per request, which is why it is not the
// implementation).
func projectRef(h event.History, req action.Request) refProjection {
	names := map[action.Name]bool{
		req.Action:                true,
		action.Cancel(req.Action): true,
		action.Commit(req.Action): true,
	}
	keepValue := func(name action.Name, v action.Value) bool {
		if !names[name] {
			return false
		}
		base, id, _ := action.SplitTag(v)
		if id != "" {
			return id == req.ID
		}
		return base == req.Input
	}
	kept := make([]bool, len(h))
	firstKeptCompletion := -1
	openByAction := make(map[action.Name][]int) // unmatched start indexes
	for i, e := range h {
		switch e.Type {
		case event.Start:
			kept[i] = keepValue(e.Action, e.Value)
			openByAction[e.Action] = append(openByAction[e.Action], i)
		case event.Complete:
			open := openByAction[e.Action]
			if e.Annotation != "" {
				kept[i] = keepValue(e.Action, action.Value(e.Annotation))
				for j := len(open) - 1; j >= 0; j-- {
					if h[open[j]].Value == action.Value(e.Annotation) {
						openByAction[e.Action] = append(open[:j], open[j+1:]...)
						break
					}
				}
			} else if len(open) > 0 {
				s := open[len(open)-1]
				openByAction[e.Action] = open[:len(open)-1]
				kept[i] = kept[s]
			}
			if kept[i] && e.Action == req.Action && firstKeptCompletion < 0 {
				firstKeptCompletion = i
			}
		}
	}
	var proj event.History
	for i, e := range h {
		if kept[i] {
			proj = append(proj, e)
		}
	}
	return refProjection{events: proj, firstKeptCompletion: firstKeptCompletion}
}

// xableProjectedRef is xableProjected over projectRef: one scan, one
// XAbleTo and the sequencing clause per request, in request order.
func (n *Normalizer) xableProjectedRef(h event.History, reqs []action.Request, sequenced bool) (bool, []action.Value) {
	outs := make([]action.Value, 0, len(reqs))
	prevEnd := -1
	for _, req := range reqs {
		spec, err := SpecFor(n.reg, req)
		if err != nil {
			return false, nil
		}
		p := projectRef(h, req)
		ok, o := n.XAbleTo(p.events, []TargetSpec{spec})
		if !ok {
			return false, nil
		}
		outs = append(outs, o[0])
		if sequenced && p.firstKeptCompletion >= 0 && p.firstKeptCompletion < prevEnd {
			return false, nil
		}
		if p.firstKeptCompletion >= 0 {
			prevEnd = p.firstKeptCompletion
		}
	}
	return true, outs
}

// ProjectionsAgree compares the walk on n's scratch with the scan, request
// by request, copying each projection out of the scratch. It is exported
// for the fuzz target, which lives in the external test package so that it
// can draw its seed corpus from scenario runs, and keeps one Normalizer
// across its inputs.
func (n *Normalizer) ProjectionsAgree(h event.History, reqs []action.Request) error {
	for r, p := range n.project(h, reqs) {
		got := refProjection{append(event.History(nil), n.kept[p.lo:p.hi]...), p.firstKeptCompletion}
		if want := projectRef(h, reqs[r]); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("request %d %v: the walk projects\n%+v, the scan\n%+v", r, reqs[r], got, want)
		}
	}
	return nil
}

// projectionCase is one randomized input of the differential: a history
// over a small vocabulary and the requests to project it onto.
type projectionCase struct {
	h    event.History
	reqs []action.Request
}

// randomProjectionCase draws a protocol-shaped multi-request history:
// retried idempotent executions, cancelled rounds before the committed one.
// A clean case is what a correct run produces — every request with an ID
// of its own, every completion annotated — and is x-able under the
// concurrent relaxation. Otherwise the case is made to collide and then
// damaged: the vocabulary is small on purpose, so there are two requests
// with one (action, input), a request ID used twice, untagged requests,
// tagged and untagged values of one request, unannotated completions,
// starts that never complete, and lost, repeated and reordered events.
// ordered lays the requests' executions out one after another (the shape
// the sequencing clause accepts) instead of interleaving them.
func randomProjectionCase(rng *rand.Rand, requests int, ordered, clean bool) projectionCase {
	actions := [...]action.Name{"read", "notify", "debit", "credit"}
	var pc projectionCase
	var streams []event.History // one per request, in program order
	for i := 0; i < requests; i++ {
		req := action.NewRequest(actions[rng.Intn(len(actions))], action.Value(fmt.Sprintf("k%d", rng.Intn(3))))
		switch p := rng.Intn(10); {
		case clean || p < 7:
			req = req.WithID(fmt.Sprintf("q%d", i))
		case p < 8 && i > 0:
			req = req.WithID(pc.reqs[rng.Intn(i)].ID) // a duplicated ID (or none)
		}
		if !clean && i > 0 && rng.Intn(8) == 0 {
			req.Action, req.Input = pc.reqs[i-1].Action, pc.reqs[i-1].Input // one (action, input) twice
		}
		pc.reqs = append(pc.reqs, req)

		var s event.History
		ov := action.Value(fmt.Sprintf("v%d", rng.Intn(4)))
		// pair appends one execution of r; the completion is annotated
		// with the value it resolved, as the environment does, or left
		// to the nearest-unmatched-start heuristic.
		pair := func(r action.Request, out action.Value) {
			iv := r.EffectiveInput()
			if !clean && rng.Intn(10) == 0 {
				iv = r.Input // an untagged value of a tagged request
			}
			c := event.C(r.Action, out)
			if clean || rng.Intn(3) > 0 {
				c = c.WithAnnotation(string(iv))
			}
			s = append(s, event.S(r.Action, iv), c)
		}
		if req.Action == "debit" || req.Action == "credit" {
			rounds := 1 + rng.Intn(3)
			for round := 1; round <= rounds; round++ {
				r := req.WithRound(round)
				pair(r, ov)
				if round < rounds {
					pair(r.Cancel(), action.Nil)
				} else {
					pair(r.Commit(), action.Nil)
				}
			}
		} else {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				pair(req, ov)
			}
		}
		if !clean && rng.Intn(6) == 0 {
			s = append(s, event.S(req.Action, req.EffectiveInput())) // a dangler
		}
		streams = append(streams, s)
	}

	// Merge the streams, each keeping its own order.
	for len(streams) > 0 {
		i := 0
		if !ordered || rng.Intn(8) == 0 {
			i = rng.Intn(len(streams))
		}
		pc.h = append(pc.h, streams[i][0])
		if streams[i] = streams[i][1:]; len(streams[i]) == 0 {
			streams = append(streams[:i], streams[i+1:]...)
		}
	}

	if !clean {
		for n := rng.Intn(3); n > 0 && len(pc.h) > 1; n-- {
			i := rng.Intn(len(pc.h) - 1)
			switch rng.Intn(4) {
			case 0: // lose an event
				pc.h = append(pc.h[:i:i], pc.h[i+1:]...)
			case 1: // repeat one
				pc.h = append(pc.h[:i+1:i+1], pc.h[i:]...)
			case 2: // reorder two
				pc.h[i], pc.h[i+1] = pc.h[i+1], pc.h[i]
			case 3: // another output
				if pc.h[i].Type == event.Complete {
					pc.h[i].Value = "other"
				}
			}
		}
	}
	return pc
}

// searchWindow reports whether XAbleTo may fall back to the exhaustive
// search on a projection of this length and pay for it: the fallback runs
// on failing histories of up to searchCutoff events, and from 9 events up a
// failing one can cost seconds (200 000 states).
func searchWindow(proj event.History) bool { return len(proj) > 8 && len(proj) <= searchCutoff }

// TestProjectionAgreesWithReference is the differential of the single walk
// against the per-request scan. On every randomized history the two must
// produce the same projections and first kept completions — which is the
// whole of what the walk replaced; the verdict is a function of those. On
// every history with no projection in the exhaustive search's expensive
// window the verdicts and outputs are compared as well, 10 000 per
// sequencing mode, of which a sizeable share must land on each side so
// that neither "everything fails" nor "everything passes" can hide a
// disagreement. One Normalizer projects and checks every case, so scratch
// a case leaves behind shows in the next.
func TestProjectionAgreesWithReference(t *testing.T) {
	n := New(testRegistry(t))
	for _, sequenced := range []bool{false, true} {
		rng := xrand.New(20)
		const verdicts = 10_000
		cases, decided, xable := 0, 0, 0
		for ; decided < verdicts; cases++ {
			pc := randomProjectionCase(rng, 1+rng.Intn(6), sequenced && rng.Intn(4) > 0, rng.Intn(3) == 0)
			if err := n.ProjectionsAgree(pc.h, pc.reqs); err != nil {
				t.Fatalf("case %d: %v\nrequests: %v\nhistory:\n%v", cases, err, pc.reqs, pc.h)
			}
			cheap := true
			for _, p := range n.project(pc.h, pc.reqs) {
				cheap = cheap && !searchWindow(n.kept[p.lo:p.hi])
			}
			if !cheap {
				continue
			}
			decided++
			wantOK, wantOuts := n.xableProjectedRef(pc.h, pc.reqs, sequenced)
			gotOK, gotOuts := n.xableProjected(pc.h, pc.reqs, sequenced)
			if gotOK != wantOK || !reflect.DeepEqual(gotOuts, wantOuts) {
				t.Fatalf("sequenced=%v case %d: the walk says (%v, %v), the scan (%v, %v)\nrequests: %v\nhistory:\n%v",
					sequenced, cases, gotOK, gotOuts, wantOK, wantOuts, pc.reqs, pc.h)
			}
			if wantOK {
				xable++
			}
		}
		t.Logf("sequenced=%v: %d histories projected, %d decided, %d x-able", sequenced, cases, decided, xable)
		if xable < verdicts/5 || xable > verdicts*4/5 {
			t.Errorf("sequenced=%v: %d of %d histories x-able; the generator no longer exercises both verdicts", sequenced, xable, verdicts)
		}
	}
}

// BenchmarkXAbleConcurrent measures the projection check on clean
// interleaved histories of 200 and 800 tagged requests — the shape an
// open-loop run hands the verifier. Time per request should not depend on
// the request count.
func BenchmarkXAbleConcurrent(b *testing.B) {
	for _, requests := range []int{200, 800} {
		pc := randomProjectionCase(xrand.New(1), requests, false, true)
		b.Run(fmt.Sprint(requests), func(b *testing.B) {
			n := New(testRegistry(b))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, _ := n.XAbleConcurrent(pc.h, pc.reqs); !ok {
					b.Fatal("not x-able")
				}
			}
		})
	}
}
