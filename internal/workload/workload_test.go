package workload

import (
	"testing"

	"xability/internal/action"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Requests: 50, Mix: DefaultMix, Accounts: 3}
	a := Generate(spec, 42)
	b := Generate(spec, 42)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := Generate(spec, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateRespectsMix(t *testing.T) {
	onlyReads := Generate(Spec{Requests: 30, Mix: Mix{Reads: 1}}, 1)
	for _, r := range onlyReads {
		if r.Action != "read" {
			t.Fatalf("pure-read mix produced %v", r)
		}
	}
	onlyDebits := Generate(Spec{Requests: 30, Mix: Mix{Debits: 1}}, 1)
	for _, r := range onlyDebits {
		if r.Action != "debit" {
			t.Fatalf("pure-debit mix produced %v", r)
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	reqs := Generate(Spec{}, 7)
	if len(reqs) != 10 {
		t.Errorf("default request count = %d, want 10", len(reqs))
	}
	kinds := map[string]bool{}
	for _, r := range reqs {
		kinds[string(r.Action)] = true
	}
	if len(kinds) < 2 {
		t.Errorf("default mix too uniform: %v", kinds)
	}
}

func TestBankInvariants(t *testing.T) {
	b := NewBank(4, 100)
	if b.Total() != 400 {
		t.Errorf("opening total = %d", b.Total())
	}
	if b.Balance("acct-2") != 100 {
		t.Errorf("balance = %d", b.Balance("acct-2"))
	}
	if b.Balance("missing") != 0 {
		t.Errorf("missing account should read 0")
	}
}

// TestBankResetIsNewBank pins Bank.Reset: the bank it leaves holds exactly
// the accounts NewBank would open — none of the previous run's balances,
// and no account a body created for an input outside the range — while the
// bodies Setup built stay, bound to the same bank.
func TestBankResetIsNewBank(t *testing.T) {
	b := NewBank(4, 100)
	b.Setup()
	b.balance["acct-1"] -= 10
	b.balance["acct"] = 5
	b.Reset(2, 50)
	if b.Total() != 100 || b.Balance("acct-0") != 50 || b.Balance("acct-1") != 50 {
		t.Errorf("reset bank holds total %d, acct-0 %d, acct-1 %d; want 100, 50, 50",
			b.Total(), b.Balance("acct-0"), b.Balance("acct-1"))
	}
	if b.Balance("acct-3") != 0 || b.Balance("acct") != 0 {
		t.Error("reset bank kept an account of the previous run")
	}
	if allocs := testing.AllocsPerRun(10, func() { b.Setup() }); allocs != 0 {
		t.Errorf("Setup after Reset allocates %.0f objects: the bodies were dropped and built again", allocs)
	}
}

func TestRegistryVocabulary(t *testing.T) {
	reg := Registry()
	if !reg.IsIdempotent("read") || !reg.IsIdempotent("token") {
		t.Error("read/token must be idempotent")
	}
	if !reg.IsUndoable("debit") {
		t.Error("debit must be undoable")
	}
}

func TestRegistryIsOneFrozenVocabulary(t *testing.T) {
	if Registry() != Registry() {
		t.Error("Registry() built a second vocabulary")
	}
	if err := Registry().Register("credit", action.KindUndoable); err == nil {
		t.Error("Register on the shared vocabulary succeeded")
	}
	if Registry().Len() != 3 {
		t.Errorf("vocabulary has %d actions, want 3", Registry().Len())
	}
}
