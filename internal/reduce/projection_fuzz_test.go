package reduce_test

import (
	"strings"
	"testing"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/reduce"
	"xability/internal/scenario"
	"xability/internal/workload"
)

// The fuzz input is text, one item per line, fields separated by tabs:
//
//	R <action> <input> <id>          a request to project onto
//	S <action> <value>               a start event
//	C <action> <value> [annotation]  a completion event
//
// Lines of any other shape are skipped, so every mutation of a valid input
// is a valid input: the fuzzer's byte edits become retagged values, lost
// annotations, colliding IDs and dropped events rather than parse errors.

func encodeProjectionInput(h event.History, reqs []action.Request) []byte {
	var b strings.Builder
	for _, r := range reqs {
		b.WriteString("R\t" + string(r.Action) + "\t" + string(r.Input) + "\t" + r.ID + "\n")
	}
	for _, e := range h {
		switch e.Type {
		case event.Start:
			b.WriteString("S\t" + string(e.Action) + "\t" + string(e.Value) + "\n")
		case event.Complete:
			b.WriteString("C\t" + string(e.Action) + "\t" + string(e.Value) + "\t" + e.Annotation + "\n")
		}
	}
	return []byte(b.String())
}

func decodeProjectionInput(data []byte) (h event.History, reqs []action.Request) {
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Split(line, "\t")
		switch {
		case len(f) == 4 && f[0] == "R":
			reqs = append(reqs, action.NewRequest(action.Name(f[1]), action.Value(f[2])).WithID(f[3]))
		case len(f) == 3 && f[0] == "S":
			h = append(h, event.S(action.Name(f[1]), action.Value(f[2])))
		case len(f) >= 3 && len(f) <= 4 && f[0] == "C":
			c := event.C(action.Name(f[1]), action.Value(f[2]))
			if len(f) == 4 {
				c = c.WithAnnotation(f[3])
			}
			h = append(h, c)
		}
	}
	return h, reqs
}

// addOpenLoopCorpus seeds a fuzz target with what the checker meets in
// production: the histories of open-loop-batch seeds 1–4 (tagged,
// annotated, interleaved across concurrent sessions) with the requests that
// produced them, cut into groups of ten sessions so that an input stays
// small enough for the fuzzer to minimize.
func addOpenLoopCorpus(f *testing.F) {
	sc, ok := scenario.Get("open-loop-batch")
	if !ok {
		f.Fatal("open-loop-batch is not registered")
	}
	for seed := int64(1); seed <= 4; seed++ {
		var reqs []action.Request
		for _, a := range workload.GenerateOpenLoop(*sc.OpenLoop, seed) {
			reqs = append(reqs, a.Req)
		}
		h := scenario.Execute(sc, seed).History
		// The requests are regenerated, not read off the run: make sure
		// they are the ones this history answers.
		if ok, _ := reduce.New(workload.Registry()).XAbleConcurrent(h, reqs); !ok {
			f.Fatalf("open-loop-batch seed %d: the history is not x-able for the generated requests", seed)
		}
		for ; len(reqs) > 0; reqs = reqs[min(10, len(reqs)):] {
			group := reqs[:min(10, len(reqs))]
			ids := make(map[string]bool, len(group))
			for _, r := range group {
				ids[r.ID] = true
			}
			// The group's events, picked by the tag they carry (a
			// completion's is in its annotation), not by the projection
			// under test.
			sub := h.Filter(func(e event.Event) bool {
				v := e.Value
				if e.Type == event.Complete {
					v = action.Value(e.Annotation)
				}
				_, id, _ := action.SplitTag(v)
				return ids[id]
			})
			f.Add(encodeProjectionInput(sub, group))
		}
	}
}

// FuzzProjectionAgrees holds the single-walk projection to the per-request
// scan on arbitrary histories: same projections, same first kept
// completions — everything the verdict is computed from. One Normalizer
// projects every input, so scratch an input leaves behind shows in the next.
func FuzzProjectionAgrees(f *testing.F) {
	addOpenLoopCorpus(f)
	n := reduce.New(workload.Registry())
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := n.ProjectionsAgree(decodeProjectionInput(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzNormalizeAgrees holds the normalizer's sweeps to the restart-from-zero
// strategy on arbitrary histories — the whole decoded history and each
// request's projection: same rewrites in the same order, same normal form —
// and, on histories small enough for the exhaustive search to be an oracle,
// the greedy verdict to the search's. One Normalizer checks every input.
func FuzzNormalizeAgrees(f *testing.F) {
	addOpenLoopCorpus(f)
	n := reduce.New(workload.Registry())
	f.Fuzz(func(t *testing.T, data []byte) {
		h, reqs := decodeProjectionInput(data)
		if err := n.NormalizeAgreesOn(h, reqs); err != nil {
			t.Fatal(err)
		}
	})
}
