package workload

import (
	"fmt"
	"sync"

	"xability/internal/action"
	"xability/internal/memo"
	"xability/internal/recycle"
	"xability/internal/sm"
)

// Bank is the standard benchmark application state: a set of accounts,
// mutated by the vocabulary of Registry. It is shared by all replicas of a
// cluster (it plays the third-party entity).
type Bank struct {
	mu      sync.Mutex
	balance map[string]int
	setup   func(m *sm.Machine) // Setup's result, built on its first call
}

// NewBank creates a bank whose accounts all start at the given balance.
func NewBank(accounts, opening int) *Bank {
	b := new(Bank)
	b.Reset(accounts, opening)
	return b
}

// Reset makes b the bank NewBank builds, keeping the storage of its balance
// table and the bodies Setup built: they are bound to b, not to its
// balances. No body may run meanwhile.
func (b *Bank) Reset(accounts, opening int) {
	*b = Bank{balance: recycle.Map(b.balance, accounts), setup: b.setup}
	for i := 0; i < accounts; i++ {
		b.balance[accountNames.Get(i)] = opening
	}
}

// accountNames holds account i's name, "acct-i", built once per program.
var accountNames = memo.New(func(i int) string { return fmt.Sprintf("acct-%d", i) })

// Balance reads an account.
func (b *Bank) Balance(acct string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.balance[acct]
}

// Total sums all accounts — the conservation invariant used by property
// checks (debits of 10 must decrease it by exactly 10 per request).
func (b *Bank) Total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := 0
	for _, v := range b.balance {
		t += v
	}
	return t
}

// Setup returns the machine setup function registering the standard action
// bodies over this bank. The bodies are built on the first call, once per
// bank; every replica's machine shares them, and so does every later call.
func (b *Bank) Setup() func(m *sm.Machine) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.setup == nil {
		b.setup = b.bodies()
	}
	return b.setup
}

// bodies builds the setup function Setup returns.
func (b *Bank) bodies() func(m *sm.Machine) {
	read := func(ctx *sm.Ctx) action.Value {
		b.mu.Lock()
		defer b.mu.Unlock()
		return action.Value(fmt.Sprintf("%d", b.balance[string(ctx.Req.Input)]))
	}
	token := func(ctx *sm.Ctx) action.Value {
		return action.Value(fmt.Sprintf("tok-%x", ctx.Rand.Int63()))
	}
	debit := func(ctx *sm.Ctx) action.Value {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.balance[string(ctx.Req.Input)] -= 10
		return "debited"
	}
	credit := func(ctx *sm.Ctx) {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.balance[string(ctx.Req.Input)] += 10
	}
	return func(m *sm.Machine) {
		must(m.HandleIdempotent("read", read))
		must(m.HandleIdempotent("token", token))
		must(m.HandleUndoable("debit", debit, credit))
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
