package pattern

import (
	"testing"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/xrand"
)

func TestSimpleMatchesExact(t *testing.T) {
	sp := Exact("a", "iv", "ov")
	tests := []struct {
		h    event.History
		want bool
	}{
		{event.History{event.S("a", "iv"), event.C("a", "ov")}, true}, // rule 5
		{event.Lambda, false},
		{event.History{event.S("a", "iv")}, false},
		{event.History{event.S("a", "x"), event.C("a", "ov")}, false},
		{event.History{event.S("a", "iv"), event.C("a", "x")}, false},
		{event.History{event.S("b", "iv"), event.C("b", "ov")}, false},
		{event.History{event.C("a", "ov"), event.S("a", "iv")}, false},
		{event.History{event.S("a", "iv"), event.C("a", "ov"), event.S("a", "iv")}, false},
	}
	for i, tt := range tests {
		if got := sp.Matches(tt.h); got != tt.want {
			t.Errorf("case %d: %v ⊨ %v = %v, want %v", i, tt.h, sp, got, tt.want)
		}
	}
}

func TestSimpleMatchesMaybe(t *testing.T) {
	sp := Maybe("a", "iv", "ov")
	tests := []struct {
		h    event.History
		want bool
	}{
		{event.Lambda, true},                                          // rule 6
		{event.History{event.S("a", "iv")}, true},                     // rule 7
		{event.History{event.S("a", "iv"), event.C("a", "ov")}, true}, // rule 8
		{event.History{event.S("a", "x")}, false},
		{event.History{event.C("a", "ov")}, false},
		{event.History{event.S("a", "iv"), event.C("a", "x")}, false},
	}
	for i, tt := range tests {
		if got := sp.Matches(tt.h); got != tt.want {
			t.Errorf("case %d: %v ⊨ %v = %v, want %v", i, tt.h, sp, got, tt.want)
		}
	}
}

func TestSimpleMatchesAnyOutput(t *testing.T) {
	sp := MaybeAny("a", "iv")
	for _, ov := range []action.Value{"x", "y", action.Nil} {
		h := event.History{event.S("a", "iv"), event.C("a", ov)}
		if !sp.Matches(h) {
			t.Errorf("wildcard output should match %v", h)
		}
	}
	if sp.Matches(event.History{event.S("a", "other")}) {
		t.Error("wildcard output does not relax the input position")
	}
}

func TestPatternString(t *testing.T) {
	if got := Exact("a", "i", "o").String(); got != "[a, i, o]" {
		t.Errorf("String() = %q", got)
	}
	if got := Maybe("a", "i", "o").String(); got != "?[a, i, o]" {
		t.Errorf("String() = %q", got)
	}
	if got := MaybeAny("a", "i").String(); got != "?[a, i, ∃ov]" {
		t.Errorf("String() = %q", got)
	}
}

// Shorthands for building histories in composite tests.
var (
	s1 = event.S("a", "iv")
	c1 = event.C("a", "ov")
	s2 = event.S("a", "iv")
	c2 = event.C("a", "ov")
	jx = event.S("z", "junk")
	jy = event.C("z", "junkdone")
)

func TestComposeRule9Shapes(t *testing.T) {
	sp1 := Maybe("a", "iv", "ov")
	sp2 := Exact("a", "iv", "ov")
	tests := []struct {
		name string
		h    event.History
		want bool
	}{
		{"h1 empty, no junk", event.History{s2, c2}, true},
		{"h1 empty, junk before h2", event.History{jx, s2, c2}, true},
		{"h1 start-only then h2", event.History{s1, s2, c2}, true},
		{"full h1 then h2", event.History{s1, c1, s2, c2}, true},
		{"junk between", event.History{s1, c1, jx, jy, s2, c2}, true},
		{"empty history", event.Lambda, false}, // sp2 is exact: needs events
		{"only failed attempt", event.History{s1}, false},
		{"junk after h2", event.History{s1, c1, s2, c2, jx}, false}, // last event must be h2's completion
		{"junk first with h1 present is junk-anchored", event.History{jx, s1, c1, s2, c2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Compose(tt.h, sp1, sp2); got != tt.want {
				t.Errorf("Compose(%v) = %v, want %v", tt.h, got, tt.want)
			}
		})
	}
}

func TestComposeJunkFirstRequiresEmptyH1(t *testing.T) {
	// When the first event of the history is junk, h1 must match Λ: the
	// anchoring constraint says a non-empty h1 starts at the first event.
	sp1 := Maybe("a", "iv", "ov")
	sp2 := Exact("a", "iv", "ov")
	h := event.History{jx, s1, c1, s2, c2}
	ds := Decompose(h, sp1, sp2, 0)
	if len(ds) == 0 {
		t.Fatal("expected at least one decomposition")
	}
	for _, d := range ds {
		if len(d.H1) != 0 {
			t.Errorf("decomposition with junk-first assigned h1=%v; h1 must be Λ", d.H1)
		}
	}
}

func TestComposeOverlappingShapes(t *testing.T) {
	sp1 := Maybe("a", "iv", "ov")
	sp2 := Exact("a", "iv", "ov")
	tests := []struct {
		name string
		h    event.History
		want bool
	}{
		{"rule 10: S1 junk C1 junk S2 junk C2", event.History{s1, jx, c1, jy, s2, c2}, true},
		{"rule 11: S1 S2 C1 C2", event.History{s1, s2, c1, c2}, true},
		{"rule 11 with junk", event.History{s1, jx, s2, jy, c1, c2}, true},
		{"failed start inside success span", event.History{s2, s1, c2}, true}, // h1=Λ + junk reading also exists
		// A stray completion before the success is junk under rule 9 with
		// h1 = Λ: junk is arbitrary, so this matches.
		{"completion before any start is junk", event.History{c1, s2, c2}, true},
		{"success events out of order", event.History{c2, s2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Compose(tt.h, sp1, sp2); got != tt.want {
				t.Errorf("Compose(%v) = %v, want %v", tt.h, got, tt.want)
			}
		})
	}
}

func TestComposeSingletonH1WithInterleavedSuccess(t *testing.T) {
	// The motivating case for the shuffle semantics: a replica starts the
	// action and crashes (start event only); another replica executes it
	// successfully, with unrelated events interleaved inside the success
	// span. Read literally, rules 10–11 cannot match this without
	// duplicating the singleton h1 event; the evident intent is that it
	// matches.
	sp1 := Maybe("a", "iv", "ov")
	sp2 := Exact("a", "iv", "ov")
	h := event.History{s1, s2, jx, c2}
	ds := Decompose(h, sp1, sp2, 0)
	found := false
	for _, d := range ds {
		if len(d.H1) == 1 && len(d.H2) == 2 && len(d.Junk) == 1 {
			found = true
			if !d.Junk.Equal(event.History{jx}) {
				t.Errorf("junk = %v, want [%v]", d.Junk, jx)
			}
		}
	}
	if !found {
		t.Errorf("no decomposition with singleton h1 for %v; got %d decompositions", h, len(ds))
	}
}

func TestDecompositionPartsPartitionHistory(t *testing.T) {
	sp1 := Maybe("a", "iv", "ov")
	sp2 := Exact("a", "iv", "ov")
	h := event.History{s1, jx, s2, jy, c1, c2}
	for _, d := range Decompose(h, sp1, sp2, 0) {
		if len(d.Assign) != len(h) {
			t.Fatalf("assign length %d, want %d", len(d.Assign), len(h))
		}
		if got := len(d.H1) + len(d.H2) + len(d.Junk); got != len(h) {
			t.Errorf("parts cover %d events, want %d", got, len(h))
		}
		if !sp1.Matches(d.H1) {
			t.Errorf("h1 = %v does not match %v", d.H1, sp1)
		}
		if !sp2.Matches(d.H2) {
			t.Errorf("h2 = %v does not match %v", d.H2, sp2)
		}
		// Anchors.
		if len(d.H1) > 0 && !d.H1[0].Equal(h[0]) {
			t.Errorf("h1 first event %v is not the history's first event", d.H1[0])
		}
		if len(d.H2) > 0 && !d.H2[len(d.H2)-1].Equal(h[len(h)-1]) {
			t.Errorf("h2 last event is not the history's last event")
		}
	}
}

func TestDecomposeLimit(t *testing.T) {
	sp1 := Maybe("a", "iv", "ov")
	sp2 := Exact("a", "iv", "ov")
	h := event.History{s1, c1, s2, c2}
	all := Decompose(h, sp1, sp2, 0)
	if len(all) < 2 {
		t.Fatalf("expected multiple decompositions, got %d", len(all))
	}
	one := Decompose(h, sp1, sp2, 1)
	if len(one) != 1 {
		t.Errorf("limit 1 returned %d", len(one))
	}
}

// literalRule9 checks the rule-9 shape: h = h1 • junk • h2 with h1 a
// contiguous prefix matching sp1 and h2 a contiguous suffix matching sp2.
func literalRule9(h event.History, sp1, sp2 Simple) bool {
	n := len(h)
	for l1 := 0; l1 <= min(2, n); l1++ {
		if !sp1.Matches(h[:l1]) {
			continue
		}
		for l2 := 0; l2 <= min(2, n-l1); l2++ {
			if sp2.Matches(h[n-l2:]) && l1+l2 <= n {
				return true
			}
		}
	}
	return false
}

// literalRule10And11 checks the shapes of rules 10 and 11 for two-event h1
// and h2 (the unambiguous cases): S1 …junk… C1 …junk… S2 …junk… C2 and
// S1 …junk… S2 …junk… C1 …junk… C2.
func literalRule10And11(h event.History, sp1, sp2 Simple) bool {
	n := len(h)
	if n < 4 {
		return false
	}
	if !sp1.matchesStart(h[0]) || !sp2.matchesCompletion(h[n-1]) {
		return false
	}
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			if i == j {
				continue
			}
			// i = position of C1, j = position of S2. Rule 10: i < j;
			// rule 11: j < i. Both demand S1 first and C2 last.
			if sp1.matchesCompletion(h[i]) && sp2.matchesStart(h[j]) {
				return true
			}
		}
	}
	return false
}

func TestDecomposeAgreesWithLiteralRules(t *testing.T) {
	// On randomized histories, the shuffle semantics must accept everything
	// the literal rules accept (it is a completion of them), and on
	// histories where h1 is unambiguous (empty or two events) they must
	// agree exactly. We verify the first direction here.
	sp1 := Maybe("a", "iv", "ov")
	sp2 := Exact("a", "iv", "ov")
	pool := event.History{s1, c1, s2, c2, jx, jy}
	rng := xrand.New(42)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(7)
		h := make(event.History, 0, n)
		for i := 0; i < n; i++ {
			h = append(h, pool[rng.Intn(len(pool))])
		}
		literal := literalRule9(h, sp1, sp2) || literalRule10And11(h, sp1, sp2)
		ours := Compose(h, sp1, sp2)
		if literal && !ours {
			t.Fatalf("history %v: literal rules match but Decompose rejects", h)
		}
	}
}

func TestDecomposeExactRequiresCompletion(t *testing.T) {
	sp1 := Exact("a", "iv", "ov")
	sp2 := Exact("a", "iv", "ov")
	// Two full executions back to back.
	h := event.History{s1, c1, s2, c2}
	if !Compose(h, sp1, sp2) {
		t.Error("two sequential executions should match [.]‖[.]")
	}
	// A single execution cannot satisfy both exact parts.
	if Compose(event.History{s1, c1}, sp1, sp2) {
		t.Error("one execution must not match two exact parts")
	}
}

func TestComposeEmptyHistoryDoubleMaybe(t *testing.T) {
	sp := Maybe("a", "iv", "ov")
	if !Compose(event.Lambda, sp, sp) {
		t.Error("Λ should match ?[…] ‖ ?[…] (both parts match Λ)")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestEachAllocatesNothing(t *testing.T) {
	sp1 := Maybe("a", "iv", "ov")
	sp2 := Exact("a", "iv", "ov")
	h := event.History{s1, jx, c1, s2, jy, c2}
	matches := 0
	allocs := testing.AllocsPerRun(100, func() {
		Each(h, sp1, sp2, func(Match) bool { matches++; return true })
	})
	if allocs != 0 {
		t.Errorf("Each allocates %.1f objects per call, want 0", allocs)
	}
	if want := 101 * len(Decompose(h, sp1, sp2, 0)); matches != want || want == 0 {
		t.Errorf("Each made %d matches in 101 calls, want %d", matches, want)
	}
}
