package event

import (
	"testing"
	"testing/quick"

	"xability/internal/action"
)

func TestEventEqualityIgnoresAnnotation(t *testing.T) {
	e1 := S("a", "x").WithAnnotation("replica-1")
	e2 := S("a", "x").WithAnnotation("replica-2")
	if !e1.Equal(e2) {
		t.Error("annotations must not affect formal equality")
	}
	if e1.Equal(C("a", "x")) {
		t.Error("start and completion must differ")
	}
	if e1.Equal(S("b", "x")) || e1.Equal(S("a", "y")) {
		t.Error("action and value participate in equality")
	}
}

func TestEventString(t *testing.T) {
	if got := S("debit", "7").String(); got != "S(debit, 7)" {
		t.Errorf("String() = %q", got)
	}
	if got := C("debit", action.Nil).String(); got != "C(debit, nil)" {
		t.Errorf("String() = %q", got)
	}
	if got := S("a", "x").WithAnnotation("p1").String(); got != "S(a, x){p1}" {
		t.Errorf("String() with annotation = %q", got)
	}
}

func TestConcat(t *testing.T) {
	h1 := History{S("a", "1"), C("a", "2")}
	h2 := History{S("b", "3")}
	got := h1.Concat(h2, Lambda, History{C("b", "4")})
	want := History{S("a", "1"), C("a", "2"), S("b", "3"), C("b", "4")}
	if !got.Equal(want) {
		t.Errorf("Concat = %v, want %v", got, want)
	}
	// Receiver must be unchanged.
	if len(h1) != 2 {
		t.Error("Concat mutated receiver")
	}
	if !Lambda.Concat().Equal(Lambda) {
		t.Error("Λ • ε should be Λ")
	}
}

func TestContains(t *testing.T) {
	h := History{S("a", "1"), C("a", "2"), S("b", "1")}
	if !h.Contains("a", "1") {
		t.Error("(a,1) ∈ h should hold")
	}
	// Membership is defined via start events only (§2.3).
	if h.Contains("a", "2") {
		t.Error("(a,2) ∈ h should not hold: completion events do not count")
	}
	if h.Contains("c", "1") {
		t.Error("(c,1) ∈ h should not hold")
	}
	if Lambda.Contains("a", "1") {
		t.Error("nothing is in Λ")
	}
}

func TestFirstSecond(t *testing.T) {
	e1, e2 := S("a", "1"), C("a", "2")
	tests := []struct {
		h             History
		first, second History
	}{
		{Lambda, Lambda, Lambda},
		{History{e1}, History{e1}, History{e1}},
		{History{e1, e2}, History{e1}, History{e2}},
		{History{e1, e2, e1}, History{e1}, Lambda}, // length > 2: "Λ otherwise"
	}
	for i, tt := range tests {
		if got := tt.h.First(); !got.Equal(tt.first) {
			t.Errorf("case %d: First() = %v, want %v", i, got, tt.first)
		}
		if got := tt.h.Second(); !got.Equal(tt.second) {
			t.Errorf("case %d: Second() = %v, want %v", i, got, tt.second)
		}
	}
}

func TestHistoryEqual(t *testing.T) {
	h := History{S("a", "1"), C("a", "2")}
	if !h.Equal(h.Clone()) {
		t.Error("clone should be equal")
	}
	if h.Equal(h[:1]) {
		t.Error("different lengths should differ")
	}
	other := History{S("a", "1"), C("a", "3")}
	if h.Equal(other) {
		t.Error("different values should differ")
	}
}

func TestCloneIndependence(t *testing.T) {
	h := History{S("a", "1")}
	c := h.Clone()
	c[0] = C("b", "2")
	if h[0].Type != Start {
		t.Error("mutating clone affected original")
	}
	if Lambda.Clone() != nil {
		t.Error("clone of Λ should stay nil")
	}
}

func TestKeyCanonical(t *testing.T) {
	h1 := History{S("a", "1").WithAnnotation("x"), C("a", "2")}
	h2 := History{S("a", "1"), C("a", "2").WithAnnotation("y")}
	if h1.Key() != h2.Key() {
		t.Error("keys must ignore annotations")
	}
	if Lambda.Key() != "Λ" {
		t.Errorf("Λ key = %q", Lambda.Key())
	}
	if h1.Key() == (History{S("a", "1"), C("a", "3")}).Key() {
		t.Error("different histories must have different keys")
	}
}

func TestStringRendering(t *testing.T) {
	if Lambda.String() != "Λ" {
		t.Errorf("Λ renders as %q", Lambda.String())
	}
	h := History{S("a", "1"), C("a", "2")}
	if got := h.String(); got != "S(a, 1) C(a, 2)" {
		t.Errorf("String() = %q", got)
	}
}

func TestFilterProjectCounts(t *testing.T) {
	h := History{S("a", "1"), C("a", "2"), S("b", "1"), S("a", "1"), C("b", "9")}
	if got := h.Starts("a", "1"); got != 2 {
		t.Errorf("Starts(a,1) = %d, want 2", got)
	}
	starts := h.Filter(func(e Event) bool { return e.Type == Start })
	if len(starts) != 3 {
		t.Errorf("Filter(starts) = %d, want 3", len(starts))
	}
}

func TestWellFormed(t *testing.T) {
	good := History{S("a", "1"), S("b", "1"), C("b", "2"), C("a", "2")}
	if err := good.WellFormed(); err != nil {
		t.Errorf("well-formed history rejected: %v", err)
	}
	// Start without completion is fine (failures, §2.2).
	partial := History{S("a", "1")}
	if err := partial.WellFormed(); err != nil {
		t.Errorf("partial history rejected: %v", err)
	}
	bad := History{C("a", "2")}
	if err := bad.WellFormed(); err == nil {
		t.Error("completion without start accepted")
	}
	bad2 := History{S("a", "1"), C("a", "2"), C("a", "3")}
	if err := bad2.WellFormed(); err == nil {
		t.Error("double completion of single start accepted")
	}
}

func TestConcatAssociativityProperty(t *testing.T) {
	gen := func(n byte) History {
		var h History
		for i := byte(0); i < n%5; i++ {
			h = append(h, S("a", action.Value(rune('0'+i))))
		}
		return h
	}
	f := func(a, b, c byte) bool {
		h1, h2, h3 := gen(a), gen(b), gen(c)
		left := h1.Concat(h2).Concat(h3)
		right := h1.Concat(h2.Concat(h3))
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	h := History{
		S("debit", "acct=7 amount=3"),
		C("debit", "ok"),
		S("debit!commit", "acct=7 amount=3"),
		C("debit!commit", action.Nil),
	}
	text := MarshalString(h)
	got, err := UnmarshalString(text)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(h) {
		t.Errorf("round trip = %v, want %v", got, h)
	}
}

func TestUnmarshalSkipsCommentsAndBlanks(t *testing.T) {
	text := "# a comment\n\nS a 1\n  C a 2  \n"
	got, err := UnmarshalString(text)
	if err != nil {
		t.Fatal(err)
	}
	want := History{S("a", "1"), C("a", "2")}
	if !got.Equal(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, bad := range []string{"X a 1", "S"} {
		if _, err := UnmarshalString(bad); err == nil {
			t.Errorf("Unmarshal(%q) succeeded, want error", bad)
		}
	}
}

func TestUnmarshalValuelessEvent(t *testing.T) {
	got, err := UnmarshalString("S ping")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != "" {
		t.Errorf("got %v, want single empty-valued event", got)
	}
}

func TestTypeString(t *testing.T) {
	if Start.String() != "S" || Complete.String() != "C" {
		t.Error("type rendering broken")
	}
	if Type(7).String() != "Type(7)" {
		t.Error("unknown type rendering broken")
	}
}
