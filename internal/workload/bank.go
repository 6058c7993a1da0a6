package workload

import (
	"fmt"
	"sync"

	"xability/internal/action"
	"xability/internal/sm"
)

// Bank is the standard benchmark application state: a set of accounts,
// mutated by the vocabulary of Registry. It is shared by all replicas of a
// cluster (it plays the third-party entity).
type Bank struct {
	mu      sync.Mutex
	balance map[string]int
}

// NewBank creates a bank whose accounts all start at the given balance.
func NewBank(accounts, opening int) *Bank {
	b := &Bank{balance: make(map[string]int, accounts)}
	for i := 0; i < accounts; i++ {
		b.balance[fmt.Sprintf("acct-%d", i)] = opening
	}
	return b
}

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
// bodies over this bank. The bodies are built here, once per bank; every
// replica's machine shares them.
func (b *Bank) Setup() func(m *sm.Machine) {
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
