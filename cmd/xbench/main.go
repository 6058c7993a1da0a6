// Command xbench regenerates the experiment tables of EXPERIMENTS.md
// (T1–T4, T3d, T6, T7, T9, T11, T12, T13, T14; T5 is produced by
// examples/threetier). Each table validates one of the paper's claims —
// see DESIGN.md §3 for the claim-to-table map. T9 is the shard-scaling
// table; T11 is the saturation-curve table of the throughput plane
// (batching and pipelining under open-loop load); T12 is the
// crash-recovery table of the durable-state plane (failure density with
// restarts on/off, plus the sync-latency cost curve); T13 is the
// observability table (schedule-space coverage and metric rollups per
// scenario — see DESIGN.md §10); T14 is the total-loss table (x-able
// rate vs failure density across minority/majority/total outage regimes
// with WAL compaction armed, plus the snapshot-tariff cost curve).
//
// The tables report the simulated system. How fast the simulator runs is
// measured by the repository's benchmark: see bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xability/internal/exper"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "base seed for all experiments")
		tables    = flag.String("tables", "1,2,3,3d,4,6,7,9,11,12,13,14", "comma-separated table numbers to run")
		reqs      = flag.Int("requests", 200, "requests per cost measurement (T3)")
		insts     = flag.Int("instances", 500, "consensus instances (T4)")
		sweep     = flag.Int("sweep", 2000, "seeds per scenario sweep (T7)")
		t3seeds   = flag.Int("t3seeds", 100, "seeds per cost-distribution row (T3d)")
		t12seeds  = flag.Int("t12seeds", 64, "seeds per failure-density cell (T12; the sync curve uses a quarter)")
		t13seeds  = flag.Int("t13seeds", 256, "seeds per observability row (T13)")
		t14seeds  = flag.Int("t14seeds", 64, "seeds per outage-regime cell (T14; the snapshot curve uses a quarter)")
		workers   = flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
		shardReqs = flag.Int("shard-requests", 0, "requests per shard-scaling row (T9; 0 = default)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, t := range strings.Split(*tables, ",") {
		want[strings.TrimSpace(t)] = true
	}

	if want["1"] {
		rows := exper.TableT1(*seed)
		fmt.Println("T1 — x-ability verdicts and side-effect audit (claim E7: baselines duplicate, the protocol does not)")
		fmt.Printf("  %-16s %-16s %-8s %-10s %-8s\n", "protocol", "scenario", "x-able", "in-force", "replied")
		for _, r := range rows {
			fmt.Printf("  %-16s %-16s %-8v %-10d %-8v\n", r.Protocol, r.Scenario, r.XAble, r.EffectsInForce, r.Replied)
		}
		fmt.Println()
	}

	if want["2"] {
		rows := exper.TableT2(*seed)
		fmt.Println("T2 — run-time spectrum under false suspicion (claim E5: primary-backup ↔ active drift)")
		fmt.Printf("  %-10s %-12s %-8s %-8s\n", "pulses", "executions", "cancels", "x-able")
		for _, r := range rows {
			fmt.Printf("  %-10d %-12d %-8d %-8v\n", r.SuspicionPulses, r.Executions, r.Cancels, r.XAble)
		}
		fmt.Println()
	}

	if want["3"] {
		rows := exper.TableT3(*seed, *reqs)
		fmt.Println("T3 — protocol cost, nice runs (claim E8)")
		fmt.Printf("  %-18s %-10s %-14s %-10s\n", "protocol", "replicas", "mean latency", "msgs/req")
		for _, r := range rows {
			fmt.Printf("  %-18s %-10d %-14v %-10.1f\n", r.Protocol, r.Replicas, r.MeanLatency, r.MsgsPerReq)
		}
		fmt.Println()
	}

	if want["3d"] {
		rows := exper.TableT3Dist(*seed, *reqs, *t3seeds, *workers)
		fmt.Printf("T3d — protocol cost distributions over %d-seed sweeps (claim E8 at population scale)\n", *t3seeds)
		fmt.Printf("  %-18s %-10s %-12s %-12s %-12s %-12s %-10s %-10s\n",
			"protocol", "replicas", "lat p50", "lat p90", "lat p99", "lat max", "msgs p50", "msgs max")
		for _, r := range rows {
			fmt.Printf("  %-18s %-10d %-12v %-12v %-12v %-12v %-10.1f %-10.1f\n",
				r.Protocol, r.Replicas, r.LatP50, r.LatP90, r.LatP99, r.LatMax, r.MsgP50, r.MsgMax)
		}
		fmt.Println()
	}

	if want["4"] {
		rows := exper.TableT4(*seed, *insts)
		fmt.Println("T4 — consensus substrate (claim E9: assumed object vs real protocol)")
		fmt.Printf("  %-16s %-10s %-12s\n", "provider", "proposers", "per-decision")
		for _, r := range rows {
			fmt.Printf("  %-16s %-10d %-12v\n", r.Provider, r.Proposers, r.PerDecide)
		}
		fmt.Println()
	}

	if want["6"] {
		rows := exper.TableT6()
		fmt.Println("T6 — checker scalability (claim E10)")
		fmt.Printf("  %-28s %-10s %-8s %-12s %-10s %-12s %-10s %-8s\n", "shape", "requests", "events", "normalize", "ns/event", "check", "ns/event", "x-able")
		var total, checks time.Duration
		for _, r := range rows {
			fmt.Printf("  %-28s %-10d %-8d %-12v %-10d %-12v %-10d %-8v\n", r.Shape, r.Requests, r.Events,
				r.Normalize, r.Normalize.Nanoseconds()/int64(r.Events), r.Check, r.Check.Nanoseconds()/int64(r.Events), r.XAble)
			total += r.Normalize
			checks += r.Check
		}
		fmt.Printf("  normalize column sums to %v, check column to %v\n", total, checks)
		fmt.Println()
	}

	if want["7"] {
		rows := exper.TableT7(*seed, *sweep, *workers)
		fmt.Printf("T7 — verdict distributions over %d-seed sweeps (claims E7/E11 at scale)\n", *sweep)
		for _, r := range rows {
			d := r.Dist
			fmt.Printf("  %-16s x-able %.4f  replied %.4f  effects[1] %d/%d  mean attempts %.2f  mean msgs %.1f\n",
				r.Scenario, d.XAbleRate(), d.RepliedRate(), d.Effects[1], d.Runs,
				float64(d.Attempts)/float64(d.Runs), float64(d.Messages)/float64(d.Runs))
			if len(d.Failing) > 0 {
				fmt.Printf("  %-16s failing seeds: %v\n", "", d.Failing)
			}
		}
		fmt.Println()
	}

	if want["9"] {
		rows := exper.TableT9(*seed, *shardReqs)
		fmt.Println("T9 — shard scaling: aggregate throughput vs shard count (composition at scale)")
		fmt.Printf("  %-8s %-10s %-14s %-14s %-10s %-8s\n", "shards", "requests", "sim time", "ops/vsec", "msgs/req", "x-able")
		for _, r := range rows {
			fmt.Printf("  %-8d %-10d %-14v %-14.0f %-10.1f %-8v\n",
				r.Shards, r.Requests, r.SimTime, r.OpsPerVSec, r.MsgsPerReq, r.XAble && r.Replied)
		}
		if len(rows) >= 3 && rows[0].OpsPerVSec > 0 {
			fmt.Printf("  1→4 shard scaling: %.2fx  (claim: ≥3x)\n", rows[2].OpsPerVSec/rows[0].OpsPerVSec)
		}
		fmt.Println()
	}

	if want["11"] {
		rows := exper.TableT11(*seed)
		fmt.Println("T11 — saturation curves: ops per virtual second and latency vs offered load (the throughput plane)")
		fmt.Printf("  %-18s %-8s %-10s %-10s %-12s %-12s %-10s %-10s %-10s %-10s %-8s\n",
			"config", "mode", "rate", "sessions", "sim time", "ops/vsec", "lat p50", "lat p95", "lat p99", "msgs/req", "x-able")
		for _, r := range rows {
			rate := "-"
			if r.Mode == "open" {
				rate = fmt.Sprintf("%d", r.Rate)
			}
			fmt.Printf("  %-18s %-8s %-10s %-10d %-12v %-10.0f %-10v %-10v %-10v %-10.1f %-8v\n",
				r.Config, r.Mode, rate, r.Sessions, r.SimTime, r.OpsPerVSec,
				r.LatP50, r.LatP95, r.LatP99, r.MsgsPerReq, r.XAble && r.Replied)
		}
		peaks := exper.T11Peak(rows)
		if peaks["unbatched"] > 0 {
			fmt.Printf("  batched+pipelined vs unbatched peak: %.2fx  (claim: ≥3x)\n",
				peaks["batched+pipelined"]/peaks["unbatched"])
		}
		fmt.Println()
	}

	if want["12"] {
		rows := exper.TableT12(*seed, *t12seeds, *workers)
		fmt.Printf("T12 — crash-recovery: x-able rate vs failure density, restarts on/off (%d seeds per cell)\n", *t12seeds)
		fmt.Printf("  %-6s %-10s %-8s %-8s %-8s %-10s %-10s %-10s\n",
			"ops", "restarts", "x-able", "replied", "dup-runs", "wal/run", "msgs/run", "seeds")
		for _, r := range rows {
			fmt.Printf("  %-6d %-10v %-8.4f %-8.4f %-8d %-10.1f %-10.1f %-10d\n",
				r.Ops, r.Restarts, r.XAbleRate, r.RepliedRate, r.DupRuns, r.MeanWALAppends, r.MeanMsgs, r.Seeds)
		}
		syncSeeds := *t12seeds / 4
		if syncSeeds < 1 {
			syncSeeds = 1
		}
		syncRows := exper.TableT12Sync(*seed, syncSeeds)
		fmt.Printf("  durability price — sync tariff vs virtual-time cost (restart-minority, %d seeds per point)\n", syncSeeds)
		fmt.Printf("  %-10s %-8s %-10s %-14s %-14s\n", "sync", "x-able", "wal/run", "sync-t/run", "sim-t/run")
		for _, r := range syncRows {
			fmt.Printf("  %-10v %-8.4f %-10.1f %-14v %-14v\n",
				r.Tariff, r.XAbleRate, r.MeanAppends, r.MeanSyncTime, r.MeanSimTime)
		}
		fmt.Println()
	}

	if want["13"] {
		rows := exper.TableT13(*seed, *t13seeds, *workers)
		fmt.Printf("T13 — observability: schedule-space coverage and metric rollups (%d seeds per row)\n", *t13seeds)
		fmt.Printf("  %-18s %-8s %-9s %-11s %-9s %-12s %-12s %-12s %-12s %-12s %-12s\n",
			"scenario", "seeds", "classes", "singletons", "tail-new", "submits p50", "announce p50", "dropped p50", "suspects p50", "lat p50", "lat max")
		for _, r := range rows {
			fmt.Printf("  %-18s %-8d %-9d %-11d %-9.2f %-12d %-12d %-12d %-12d %-12v %-12v\n",
				r.Scenario, r.Seeds, r.Classes, r.Singletons, r.TailNewRate,
				r.SubmitsP50, r.AnnounceP50, r.DroppedP50, r.SuspectP50, r.LatP50, r.LatMax)
		}
		fmt.Println()
	}

	if want["14"] {
		rows := exper.TableT14(*seed, *t14seeds, *workers)
		fmt.Printf("T14 — total-loss recovery: x-able rate vs failure density across outage regimes, compaction armed (%d seeds per cell)\n", *t14seeds)
		fmt.Printf("  %-10s %-6s %-8s %-8s %-8s %-10s %-10s %-10s %-10s\n",
			"regime", "ops", "x-able", "replied", "dup-runs", "wal/run", "compact", "live/run", "seeds")
		for _, r := range rows {
			fmt.Printf("  %-10s %-6d %-8.4f %-8.4f %-8d %-10.1f %-10.1f %-10.1f %-10d\n",
				r.Regime, r.Ops, r.XAbleRate, r.RepliedRate, r.DupRuns,
				r.MeanWALAppends, r.MeanCompactions, r.MeanLiveRecords, r.Seeds)
		}
		snapSeeds := *t14seeds / 4
		if snapSeeds < 1 {
			snapSeeds = 1
		}
		snapRows := exper.TableT14Snap(*seed, snapSeeds)
		fmt.Printf("  bounded-log price — snapshot tariff vs virtual-time cost (power-cycle, compact threshold 8, %d seeds per point)\n", snapSeeds)
		fmt.Printf("  %-10s %-8s %-10s %-14s %-14s\n", "snap", "x-able", "compact", "sync-t/run", "sim-t/run")
		for _, r := range snapRows {
			fmt.Printf("  %-10v %-8.4f %-10.1f %-14v %-14v\n",
				r.Tariff, r.XAbleRate, r.MeanCompactions, r.MeanSyncTime, r.MeanSimTime)
		}
		fmt.Println()
	}

	if len(want) == 0 {
		fmt.Fprintln(os.Stderr, "no tables selected")
		os.Exit(2)
	}
}
