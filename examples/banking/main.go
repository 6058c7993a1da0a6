// Banking: undoable transfers with crash recovery.
//
// The example replicates a funds-transfer service over a ledger (the
// third-party entity). Transfers are undoable actions: the ledger applies
// them tentatively, the protocol's outcome agreement decides commit or
// abort per round, and cancellations roll the tentative effect back. The
// run injects action failures and crashes the first replica mid-request;
// the ledger's audit and the x-ability checker confirm the transfer still
// happened exactly once.
//
//	go run ./examples/banking
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"xability"
)

// ledger is the external, third-party system of record.
type ledger struct {
	mu       sync.Mutex
	balances map[string]int
}

func (l *ledger) apply(from, to string, amount int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balances[from] -= amount
	l.balances[to] += amount
}

func (l *ledger) balance(acct string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balances[acct]
}

func main() {
	book := &ledger{balances: map[string]int{"alice": 100, "bob": 0}}

	reg := xability.NewRegistry()
	reg.MustRegister("transfer", xability.Undoable)
	reg.MustRegister("balance", xability.Idempotent)

	svc := xability.NewService(xability.ServiceConfig{
		Replicas: 3,
		Seed:     7,
		Registry: reg,
		Setup: func(m *xability.Machine) {
			check(m.HandleUndoable("transfer",
				func(ctx *xability.Ctx) xability.Value {
					book.apply("alice", "bob", 25)
					return "transferred 25"
				},
				func(ctx *xability.Ctx) {
					book.apply("bob", "alice", 25) // rollback
				}))
			check(m.HandleIdempotent("balance", func(ctx *xability.Ctx) xability.Value {
				return xability.Value(fmt.Sprintf("%d", book.balance(string(ctx.Req.Input))))
			}))
		},
	})
	defer svc.Close()

	// Make life hard: the ledger fails intermittently (execute-until-success
	// must cancel and retry) and the first replica crashes mid-request (a
	// cleaner replica cancels its round and takes over).
	svc.Environment().SetFailures("transfer", 1.0, 6, 0.5)
	clk := svc.Clock()
	clk.Go(func() {
		clk.Sleep(2 * time.Millisecond)
		svc.Cluster().CrashServer(0)
		svc.Cluster().ClientSuspect("replica-0", true)
	})

	transferred := svc.Call(xability.NewRequest("transfer", "alice->bob"))
	fmt.Println("transfer:", transferred)
	fmt.Println("alice:   ", svc.Call(xability.NewRequest("balance", "alice")))
	fmt.Println("bob:     ", svc.Call(xability.NewRequest("balance", "bob")))

	inForce := svc.Environment().InForceTotal("transfer", "alice->bob")
	fmt.Printf("\nledger audit: transfer effects in force = %d (exactly-once wants 1)\n", inForce)
	report := svc.Verify(reg)
	fmt.Printf("x-ability verification: R2=%v R3=%v R4=%v\n",
		report.R2, report.R3Strict || report.R3Projected, report.R4Possible && report.R4Consistent)
	if !report.OK() || inForce != 1 || book.balance("bob") != 25 {
		log.Fatalf("exactly-once violated: report=%+v bob=%d", report, book.balance("bob"))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
