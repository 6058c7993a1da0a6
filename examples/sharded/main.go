// Sharded multi-group replication: the composition result (§4's
// locality) taken to the scale the theory promises. A keyspace of
// accounts is partitioned by a consistent-hash ring across four
// independently replicated groups — each a full x-able service on its own
// simulated network — behind one router, all on one virtual clock.
//
// Three things are demonstrated:
//
//  1. Routing: every request goes to exactly one owning group, chosen by
//     its key alone; failover on crash stays inside the group.
//
//  2. Scaling: the same workload's virtual-time span shrinks as groups
//     serve their key ranges concurrently (aggregate ops per virtual
//     second — Table T9 measures it across shard counts).
//
//  3. Verification: the deployment verifies exactly-once end to end —
//     each group's history reduces on its own, and the routing audit
//     confirms no request surfaced in two groups — even with a group's
//     round-1 owner crashed mid-batch.
//
// Run it with:
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"time"

	"xability"
)

func main() {
	reg := xability.NewRegistry()
	reg.MustRegister("reserve", xability.Idempotent)

	const shards = 4
	cfg := xability.ShardedConfig{
		Shards: shards,
		Group:  xability.ServiceConfig{Replicas: 3, Seed: 7, Registry: reg},
		Setup: func(shard int) func(m *xability.Machine) {
			return func(m *xability.Machine) {
				check(m.HandleIdempotent("reserve", func(ctx *xability.Ctx) xability.Value {
					return xability.Value(fmt.Sprintf("reserved:%s@shard-%d", ctx.Req.Input, shard))
				}))
			}
		},
	}
	// Simulated message delays make the virtual-time span meaningful (the
	// zero default is immediate handoff).
	cfg.Group.Net.MaxDelay = 200 * time.Microsecond
	svc := xability.NewShardedService(cfg)
	defer svc.Close()

	// A batch over 16 SKUs, routed by key across the four groups.
	var batch []xability.Request
	for i := 0; i < 16; i++ {
		batch = append(batch, xability.NewRequest("reserve", xability.Value(fmt.Sprintf("sku-%d", i))))
	}

	clk := svc.Clock()
	// Crash the round-1 owner of sku-0's group mid-batch: its cleaner
	// takes over; the other groups never notice.
	victim := svc.ShardOf(batch[0])
	svc.Apply(xability.NewPlan().OnShard(victim, xability.NewPlan().CrashAt(500*time.Microsecond, 0)))
	start := clk.Now()
	replies, ok := svc.CallAll(batch)
	elapsed := clk.Now() - start
	if !ok {
		log.Fatal("some requests went unanswered")
	}

	perShard := make([]int, shards)
	for i, req := range batch {
		s := svc.ShardOf(req)
		perShard[s]++
		if i < 4 {
			fmt.Printf("client ← %-28s (shard %d)\n", replies[i], s)
		}
	}
	fmt.Printf("…\nrouted %d requests across %d groups %v, shard %d's owner crashed mid-batch\n",
		len(batch), shards, perShard, victim)
	fmt.Printf("batch span: %v of virtual time (streams overlap on one clock)\n", elapsed)

	rep := svc.Verify(reg)
	for s, r := range rep.Shards {
		fmt.Printf("shard %d x-able: R3=%v (%d events)\n", s, r.R3Strict || r.R3Projected, len(svc.History(s)))
	}
	fmt.Printf("routing exactly-once: %v\n", rep.RoutingExact)
	if !rep.OK() {
		log.Fatalf("merged verification failed: %+v", rep)
	}
	fmt.Println("\ncomposition holds at scale: every group exactly-once, every key exactly one owner")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
