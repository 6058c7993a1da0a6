// Three-tier composition: the paper's motivating architecture (§1,
// footnote 1) — a client invokes a replicated middle-tier application
// server, which itself invokes a replicated back-end database.
//
// The example demonstrates x-ability's locality (§1, §4): the back-end
// service is proved x-able on its own; the middle tier then treats the
// back-end's submit as an idempotent action (R1 licenses exactly that) and
// is proved x-able in turn, without reasoning about the back-end's
// internals. Both tiers are verified independently against their own
// observers.
//
// The second phase runs the same pipeline under fire, using fault plans
// from the scenario registry: the durable back-end owner crashes and later
// restarts from its write-ahead log (restart-minority's schedule), while a
// false suspicion drags the order tier into its active flavor (suspect's
// schedule) — so two order replicas execute concurrently and both drive
// the shared back-end stub at once. Composition must hold through all of
// it: each tier still verifies exactly-once on its own history.
//
//	go run ./examples/threetier
package main

import (
	"fmt"
	"log"

	"xability"
)

func main() {
	// ---- Tier 1: the replicated inventory database, on stable storage so
	// a crashed replica can restart from its log.
	dbReg := xability.NewRegistry()
	dbReg.MustRegister("reserve", xability.Idempotent)

	db := xability.NewService(xability.ServiceConfig{
		Replicas: 3,
		Seed:     11,
		Registry: dbReg,
		Durable:  true,
		Setup: func(m *xability.Machine) {
			check(m.HandleIdempotent("reserve", func(ctx *xability.Ctx) xability.Value {
				// Reserving stock is naturally idempotent per order ID: the
				// database keys the reservation by its input.
				return "reserved:" + ctx.Req.Input
			}))
		},
	})
	defer db.Close()

	// ---- Tier 2: the replicated order service, calling tier 1.
	// R1 makes the nested submit idempotent and R2 makes it eventually
	// successful, so the middle tier may classify the whole nested call as
	// one idempotent action of its own state machine — that is the
	// composition (locality) principle.
	orderReg := xability.NewRegistry()
	orderReg.MustRegister("order", xability.Idempotent)

	orders := xability.NewService(xability.ServiceConfig{
		Replicas: 3,
		Seed:     12,
		Registry: orderReg,
		Setup: func(m *xability.Machine) {
			check(m.HandleIdempotent("order", func(ctx *xability.Ctx) xability.Value {
				nested := db.Call(xability.NewRequest("reserve", ctx.Req.Input))
				return "order-ok(" + nested + ")"
			}))
		},
	})
	defer orders.Close()

	// ---- Phase 1: the failure-free pipeline.
	reply := orders.Call(xability.NewRequest("order", "sku-42"))
	fmt.Println("client  ←", reply)

	// ---- Phase 2: the same pipeline under the registry's fault plans.
	// The back end replays restart-minority's schedule (owner crashes, then
	// restarts from its WAL); the order tier replays suspect's false
	// suspicion, which makes a second replica execute the order
	// concurrently — both executors then submit through the shared back-end
	// stub at the same time. Injected action failures stretch the order's
	// execution so the 2ms fault ops land mid-pipeline.
	restart, ok := xability.ScenarioByName("restart-minority")
	if !ok {
		log.Fatal("restart-minority not registered")
	}
	suspect, ok := xability.ScenarioByName("suspect")
	if !ok {
		log.Fatal("suspect not registered")
	}
	orders.Environment().SetFailures("order", 1, 6, 0)

	db.Apply(restart.Plan)
	orders.Apply(suspect.Plan)
	reply = orders.Call(xability.NewRequest("order", "sku-43"))
	fmt.Println("client  ←", reply, " (back end crashed and restarted mid-pipeline)")

	// Verify each tier locally against its own history.
	dbReport := db.Verify(dbReg)
	orderReport := orders.Verify(orderReg)
	fmt.Printf("tier 1 (database) x-able: R3=%v  submits=%d\n", dbReport.R3Strict, db.Attempts())
	fmt.Printf("tier 2 (orders)   x-able: R3=%v  submits=%d\n", orderReport.R3Strict, orders.Attempts())
	fmt.Printf("tier-1 events: %d   tier-2 events: %d\n", len(db.History()), len(orders.History()))

	if !dbReport.OK() || !orderReport.OK() {
		log.Fatalf("composition verification failed: db=%+v orders=%+v", dbReport, orderReport)
	}
	fmt.Println("\ncomposition holds: both tiers reduce to exactly-once independently")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
