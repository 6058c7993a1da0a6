// Spectrum: the protocol's run-time drift between primary-backup and
// active replication (§5.1).
//
// The paper's algorithm does not fix a replication style: in nice runs the
// round-1 owner executes alone (primary-backup flavor); when the failure
// detector (falsely) suspects the owner, other replicas start new rounds
// and execute concurrently, with consensus arbitrating results (active
// flavor). This example sweeps false-suspicion aggressiveness and prints
// how many replicas ended up executing each request — while the x-ability
// checker confirms every run still looks exactly-once to the environment.
//
//	go run ./examples/spectrum
package main

import (
	"fmt"
	"log"
	"time"

	"xability"
	"xability/internal/action"
	"xability/internal/event"
)

func main() {
	fmt.Println("suspicion pulses → executions (1 = primary-backup flavor, >1 = active flavor)")
	for _, pulses := range []int{0, 1, 2, 3} {
		execs, cancels, ok := run(pulses)
		bar := ""
		for i := 0; i < execs; i++ {
			bar += "█"
		}
		fmt.Printf("  pulses=%d  executions=%d %-6s cancels=%d  x-able=%v\n", pulses, execs, bar, cancels, ok)
		if !ok {
			log.Fatal("a spectrum point failed verification")
		}
	}
	fmt.Println("\nevery point is x-able: duplication is visible in the history, not to the client")
}

func run(pulses int) (executions, cancels int, xable bool) {
	reg := xability.NewRegistry()
	reg.MustRegister("charge", xability.Undoable)

	svc := xability.NewService(xability.ServiceConfig{
		Replicas: 3,
		Seed:     int64(100 + pulses),
		Registry: reg,
		Setup: func(m *xability.Machine) {
			err := m.HandleUndoable("charge",
				func(ctx *xability.Ctx) xability.Value { return "charged" },
				nil)
			if err != nil {
				log.Fatal(err)
			}
		},
	})
	defer svc.Close()

	if pulses > 0 {
		// Slow the owner down so suspicions land mid-execution, then
		// declare the pulse schedule as a fault plan on the virtual clock.
		svc.Environment().SetFailures("charge", 1.0, 3*pulses, 0)
		plan := xability.NewPlan()
		var at time.Duration
		for i := 0; i < pulses; i++ {
			at += time.Duration(1+i) * time.Millisecond
			plan.SuspectAt(at, "replica-0")
			at += 500 * time.Microsecond
			plan.UnsuspectAt(at, "replica-0")
		}
		svc.Apply(plan)
	}

	svc.Call(xability.NewRequest("charge", "card-1"))
	h := svc.History()
	for _, e := range h {
		if e.Type == event.Start && e.Action == "charge" {
			executions++
		}
		if e.Type == event.Complete && e.Action == action.Cancel("charge") {
			cancels++
		}
	}
	rep := svc.Verify(reg)
	return executions, cancels, rep.OK()
}
