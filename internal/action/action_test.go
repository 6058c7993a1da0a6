package action

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestCancelCommitDerivation(t *testing.T) {
	tests := []struct {
		name     Name
		derive   func(Name) Name
		wantBase Name
		wantKind Kind
	}{
		{"debit", Cancel, "debit", KindCancel},
		{"debit", Commit, "debit", KindCommit},
		{"a", Cancel, "a", KindCancel},
		{"a", Commit, "a", KindCommit},
	}
	for _, tt := range tests {
		derived := tt.derive(tt.name)
		base, kind := Base(derived)
		if base != tt.wantBase || kind != tt.wantKind {
			t.Errorf("Base(%q) = (%q, %v), want (%q, %v)", derived, base, kind, tt.wantBase, tt.wantKind)
		}
		if !IsDerived(derived) {
			t.Errorf("IsDerived(%q) = false, want true", derived)
		}
	}
}

func TestBasePlainName(t *testing.T) {
	base, kind := Base("transfer")
	if base != "transfer" || kind != KindIdempotent {
		t.Errorf("Base(transfer) = (%q, %v), want (transfer, idempotent-by-default)", base, kind)
	}
	if IsDerived("transfer") {
		t.Error("IsDerived(transfer) = true, want false")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(""); err == nil {
		t.Error("Validate(\"\") = nil, want error")
	}
	if err := Validate("a!cancel"); err == nil {
		t.Error("Validate with reserved '!' = nil, want error")
	}
	if err := Validate("withdraw"); err != nil {
		t.Errorf("Validate(withdraw) = %v, want nil", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindIdempotent: "idempotent",
		KindUndoable:   "undoable",
		KindCancel:     "cancel",
		KindCommit:     "commit",
		Kind(99):       "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestRequestDerivation(t *testing.T) {
	r := NewRequest("debit", "acct=7").WithRound(3)
	c := r.Cancel()
	if c.Action != Cancel("debit") || c.Input != r.Input || c.Round != 3 {
		t.Errorf("Cancel() = %+v, want same input/round with derived name", c)
	}
	m := r.Commit()
	if m.Action != Commit("debit") || m.Input != r.Input || m.Round != 3 {
		t.Errorf("Commit() = %+v, want same input/round with derived name", m)
	}
}

func TestEffectiveInputDistinguishesRounds(t *testing.T) {
	r1 := NewRequest("a", "x").WithRound(1)
	r2 := NewRequest("a", "x").WithRound(2)
	if r1.EffectiveInput() == r2.EffectiveInput() {
		t.Error("EffectiveInput must distinguish rounds (§5.4: a cancellation for round n cannot cancel round n+1)")
	}
	r0 := NewRequest("a", "x")
	if r0.EffectiveInput() != "x" {
		t.Errorf("round-0 EffectiveInput = %q, want raw input", r0.EffectiveInput())
	}
}

// TestEffectiveInputEncoding pins EffectiveInput's bytes to the tuple
// encoding the checker's SplitTag parses, and its cost to one allocation.
func TestEffectiveInputEncoding(t *testing.T) {
	for _, r := range []Request{
		NewRequest("a", "x=1").WithID("req-7").WithRound(3),
		NewRequest("a", "").WithID("c-12").WithRound(64),
		NewRequest("a", "acct=9").WithID("q").WithRound(0),
		NewRequest("a", "y").WithID("").WithRound(-2),
	} {
		want := EncodeTuple(string(r.Input), "x:"+r.ID+":"+strconv.Itoa(r.Round))
		got := r.EffectiveInput()
		if got != want {
			t.Errorf("%v: EffectiveInput = %q, want %q", r, got, want)
		}
		if r.ID == "" {
			continue // SplitTag wants a request ID
		}
		if base, id, round := SplitTag(got); base != r.Input || id != r.ID || round != r.Round {
			t.Errorf("%v: SplitTag = (%q, %q, %d)", r, base, id, round)
		}
	}
	r := NewRequest("debit", "acct=7").WithID("client-0-41").WithRound(12)
	if n := testing.AllocsPerRun(100, func() { _ = r.EffectiveInput() }); n != 1 {
		t.Errorf("EffectiveInput allocates %.0f objects, want 1", n)
	}
}

func TestSplitTagRoundTrip(t *testing.T) {
	r := NewRequest("a", "x=1").WithID("req-7").WithRound(3)
	base, id, round := SplitTag(r.EffectiveInput())
	if base != "x=1" || id != "req-7" || round != 3 {
		t.Errorf("SplitTag = (%q, %q, %d), want (x=1, req-7, 3)", base, id, round)
	}
	base, id, round = SplitTag("plain")
	if base != "plain" || id != "" || round != 0 {
		t.Errorf("SplitTag(plain) = (%q, %q, %d)", base, id, round)
	}
	// Requests tagged with an ID but no round still round-trip.
	r2 := NewRequest("a", "x").WithID("q")
	base, id, round = SplitTag(r2.EffectiveInput())
	if base != "x" || id != "q" || round != 0 {
		t.Errorf("SplitTag(id-only) = (%q, %q, %d)", base, id, round)
	}
}

func TestRequestString(t *testing.T) {
	r := NewRequest("debit", "acct=7")
	if got := r.String(); got != "(debit, acct=7)" {
		t.Errorf("String() = %q", got)
	}
	if got := r.WithRound(2).WithID("q1").String(); got != "(debit, acct=7@q1/r2)" {
		t.Errorf("String() with round = %q", got)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	fields := []string{"a", "", "c=d", "round=2"}
	v := EncodeTuple(fields...)
	got := DecodeTuple(v)
	if len(got) != len(fields) {
		t.Fatalf("DecodeTuple returned %d fields, want %d", len(got), len(fields))
	}
	for i := range fields {
		if got[i] != fields[i] {
			t.Errorf("field %d = %q, want %q", i, got[i], fields[i])
		}
	}
}

func TestTupleRoundTripProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		// The separator cannot appear in field text; strip it if quick
		// generates it.
		clean := func(s string) string { return strings.ReplaceAll(s, tupleSep, "_") }
		fields := []string{clean(a), clean(b), clean(c)}
		got := DecodeTuple(EncodeTuple(fields...))
		return len(got) == 3 && got[0] == fields[0] && got[1] == fields[1] && got[2] == fields[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisplayNil(t *testing.T) {
	if Display(Nil) != "nil" {
		t.Errorf("Display(Nil) = %q, want nil", Display(Nil))
	}
	if Display("v") != "v" {
		t.Errorf("Display(v) = %q", Display("v"))
	}
	if Nil == "" {
		t.Error("Nil must be distinguishable from the empty value")
	}
}

func TestRegistryClassification(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterIdempotent("read"); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterUndoable("debit"); err != nil {
		t.Fatal(err)
	}

	if !r.IsIdempotent("read") {
		t.Error("read should be idempotent")
	}
	if r.IsUndoable("read") {
		t.Error("read should not be undoable")
	}
	if !r.IsUndoable("debit") {
		t.Error("debit should be undoable")
	}
	if r.IsIdempotent("debit") {
		t.Error("debit itself is not idempotent")
	}
	// §3.1: cancellation and commit actions are idempotent.
	if !r.IsIdempotent(Cancel("debit")) {
		t.Error("debit!cancel should be idempotent")
	}
	if !r.IsIdempotent(Commit("debit")) {
		t.Error("debit!commit should be idempotent")
	}

	if k, ok := r.Kind(Cancel("debit")); !ok || k != KindCancel {
		t.Errorf("Kind(debit!cancel) = (%v, %v), want (cancel, true)", k, ok)
	}
	if _, ok := r.Kind("unknown"); ok {
		t.Error("Kind(unknown) should report not found")
	}
	if _, ok := r.Kind(Cancel("unknown")); ok {
		t.Error("Kind of cancel of unregistered base should report not found")
	}
}

func TestRegistryRejectsConflicts(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterUndoable("debit"); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterIdempotent("debit"); err == nil {
		t.Error("re-registering debit with different kind should fail")
	}
	if err := r.RegisterUndoable("debit"); err != nil {
		t.Errorf("idempotent re-registration with same kind should succeed, got %v", err)
	}
	if err := r.Register("x", KindCancel); err == nil {
		t.Error("registering a derived kind directly should fail")
	}
	if err := r.Register("a!cancel", KindIdempotent); err == nil {
		t.Error("registering a derived name should fail")
	}
}

func TestRegistryNamesAndClone(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("b", KindUndoable)
	r.MustRegister("a", KindIdempotent)
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names() = %v, want [a b]", names)
	}

	c := r.Clone()
	c.MustRegister("z", KindIdempotent)
	if len(r.Names()) != 2 {
		t.Error("mutating clone affected original")
	}
	if !c.IsUndoable("b") {
		t.Error("clone lost classification")
	}
}

// TestRegistryConcurrentUse pins the read-only contract of a registry in
// use: readers take no lock, and a frozen registry refuses Register without
// writing, so both may run at once (go test -race checks the claim).
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("read", KindIdempotent)
	r.MustRegister("debit", KindUndoable)
	r.Freeze()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			r.IsIdempotent("read")
			r.Kind("debit")
		}
	}()
	for i := 0; i < 1000; i++ {
		if r.Register("read", KindIdempotent) == nil || r.Register("debit", KindUndoable) == nil {
			t.Fatal("Register on a frozen registry succeeded")
		}
		if !r.IsUndoable("debit") || !r.IsIdempotent(Cancel("debit")) {
			t.Fatal("frozen registry lost a classification")
		}
	}
	<-done
	if r.Clone().Register("z", KindIdempotent) != nil {
		t.Error("a clone of a frozen registry must accept Register")
	}
}

// TestRegistryLookupDerivesNamesOnce pins Lookup: a registered action and
// both its derived names resolve to one entry that carries the derived
// names and the action's registration index.
func TestRegistryLookupDerivesNamesOnce(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("read", KindIdempotent)
	r.MustRegister("debit", KindUndoable)
	if r.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", r.Len())
	}
	for _, c := range []struct {
		name Name
		kind Kind
	}{{"debit", KindUndoable}, {Cancel("debit"), KindCancel}, {Commit("debit"), KindCommit}} {
		e, ok := r.Lookup(c.name)
		want := Entry{Kind: c.kind, Index: 1, Cancel: Cancel("debit"), Commit: Commit("debit")}
		if !ok || e != want {
			t.Errorf("Lookup(%s) = (%+v, %v), want (%+v, true)", c.name, e, ok, want)
		}
	}
	if _, ok := r.Lookup(Cancel("ghost")); ok {
		t.Error("Lookup of a derived name of an unregistered action succeeded")
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRegister on invalid name should panic")
		}
	}()
	NewRegistry().MustRegister("", KindIdempotent)
}
