package exper

import (
	"reflect"
	"testing"
	"time"

	"xability/internal/reduce"
	"xability/internal/workload"
)

// The exper tests pin the qualitative shapes the paper's claims predict —
// who wins, by what kind of factor — not absolute numbers.

func TestT1Shapes(t *testing.T) {
	rows := TableT1(101)
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 (x-ability × 4 scenarios, primary-backup × 2, active × 1)", len(rows))
	}
	byKey := make(map[string]T1Row)
	for _, r := range rows {
		byKey[r.Protocol+"/"+r.Scenario] = r
	}

	xaNice := byKey["x-ability/nice"]
	if !xaNice.XAble || xaNice.EffectsInForce != 1 || !xaNice.Replied {
		t.Errorf("x-ability nice run should be x-able with exactly one effect: %+v", xaNice)
	}
	xaCrash := byKey["x-ability/crash-failover"]
	if !xaCrash.XAble || xaCrash.EffectsInForce != 1 {
		t.Errorf("x-ability crash failover should stay exactly-once: %+v", xaCrash)
	}
	// The adversarial rows landed with the scenario layer: a partition
	// (over the message-passing consensus substrate) and a delay storm
	// must not break exactly-once either.
	xaPart := byKey["x-ability/partition"]
	if !xaPart.XAble || xaPart.EffectsInForce != 1 || !xaPart.Replied {
		t.Errorf("x-ability partition run should stay exactly-once: %+v", xaPart)
	}
	xaStorm := byKey["x-ability/delay-storm"]
	if !xaStorm.XAble || xaStorm.EffectsInForce != 1 || !xaStorm.Replied {
		t.Errorf("x-ability delay-storm run should stay exactly-once: %+v", xaStorm)
	}

	pbNice := byKey["primary-backup/nice"]
	if pbNice.EffectsInForce != 1 {
		t.Errorf("primary-backup nice run should apply once: %+v", pbNice)
	}
	pbCrash := byKey["primary-backup/crash-failover"]
	if pbCrash.EffectsInForce < 2 {
		t.Errorf("primary-backup failover should duplicate the effect: %+v", pbCrash)
	}
	if pbCrash.XAble {
		t.Errorf("duplicated diverging executions must not be x-able: %+v", pbCrash)
	}

	act := byKey["active/nice"]
	if act.EffectsInForce != 3 {
		t.Errorf("active replication should apply the effect on all 3 replicas: %+v", act)
	}
	if act.XAble {
		t.Errorf("active replication's diverging duplicates must not be x-able: %+v", act)
	}
}

func TestT2SpectrumShape(t *testing.T) {
	rows := TableT2(202)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Executions != 1 {
		t.Errorf("no suspicion should mean a single executor (primary-backup flavor): %+v", rows[0])
	}
	for _, r := range rows {
		if !r.XAble {
			t.Errorf("every spectrum point must remain x-able: %+v", r)
		}
	}
	// With maximum pulses the run must show concurrent execution.
	last := rows[len(rows)-1]
	if last.Executions < 2 {
		t.Errorf("aggressive suspicion should force multiple executions (active flavor): %+v", last)
	}
}

func TestT3CostShape(t *testing.T) {
	rows := TableT3(303, 6)
	byKey := make(map[string]T3Row)
	for _, r := range rows {
		byKey[r.Protocol+string(rune('0'+r.Replicas))] = r
	}
	// Active replication sends more messages per request than
	// primary-backup at the same degree (sequencing + n executions).
	if byKey["active3"].MsgsPerReq <= byKey["primary-backup3"].MsgsPerReq {
		t.Errorf("active (%0.1f msgs) should out-message primary-backup (%0.1f)",
			byKey["active3"].MsgsPerReq, byKey["primary-backup3"].MsgsPerReq)
	}
	// The CT substrate costs more messages than the assumed local objects.
	if byKey["x-ability/ct3"].MsgsPerReq <= byKey["x-ability/local3"].MsgsPerReq {
		t.Errorf("CT consensus (%0.1f msgs) should out-message local objects (%0.1f)",
			byKey["x-ability/ct3"].MsgsPerReq, byKey["x-ability/local3"].MsgsPerReq)
	}
}

func TestT4ConsensusShape(t *testing.T) {
	rows := TableT4(404, 10)
	var local1, ct1 T4Row
	for _, r := range rows {
		if r.Proposers == 1 {
			if r.Provider == "local" {
				local1 = r
			} else {
				ct1 = r
			}
		}
	}
	if ct1.PerDecide <= local1.PerDecide {
		t.Errorf("message-passing consensus (%v) should be slower than the shared object (%v)",
			ct1.PerDecide, local1.PerDecide)
	}
}

func TestT7SweepShapes(t *testing.T) {
	rows := TableT7(1, 25, 0)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Dist.Runs != 25 {
			t.Errorf("%s: runs = %d", r.Scenario, r.Dist.Runs)
		}
		// The paper's claim at population scale: every schedule of every
		// swept scenario stays x-able and answered.
		if r.Dist.XAbleRate() != 1.0 || r.Dist.RepliedRate() != 1.0 {
			t.Errorf("%s: x-able %.4f replied %.4f; failing seeds %v",
				r.Scenario, r.Dist.XAbleRate(), r.Dist.RepliedRate(), r.Dist.Failing)
		}
		if r.Dist.Effects[1] != r.Dist.Runs {
			t.Errorf("%s: effects histogram %v, want all mass on 1", r.Scenario, r.Dist.Effects)
		}
	}
}

func TestT6ScalesAndStaysCorrect(t *testing.T) {
	rows := TableT6()
	largest := map[string]T6Row{}
	var total time.Duration
	for _, r := range rows {
		if !r.XAble {
			t.Errorf("synthetic protocol-shaped history must verify: %+v", r)
		}
		if r.Events > largest[r.Shape].Events {
			largest[r.Shape] = r
		}
		total += r.Normalize
	}
	// Every shape is swept to 3200 requests — the tripled reads to 19 200
	// events, the cancelled and replayed debit rounds to 32 000 — and the
	// whole table is a fraction of a second of checking (the growth itself
	// is gated by reduce's TestNormalizeScalesLinearly).
	for _, shape := range []string{
		"reads dup=1", "reads dup=3",
		"debits cancelled=0", "debits cancelled=1",
		"debits cancelled=0+replay", "debits cancelled=1+replay",
	} {
		if r := largest[shape]; r.Requests != 3200 {
			t.Errorf("%s: largest row has %d requests, want 3200", shape, r.Requests)
		}
	}
	if got := largest["reads dup=3"].Events; got != 19200 {
		t.Errorf("reads dup=3 at 3200 requests has %d events, want 19200", got)
	}
	if got := largest["debits cancelled=1+replay"].Events; got != 32000 {
		t.Errorf("debits cancelled=1+replay at 3200 requests has %d events, want 32000", got)
	}
	if total > 5*time.Second {
		t.Errorf("the table's checks took %v in all; a 19 200-event row alone took minutes when a pass cost the history per rewrite", total)
	}
}

func TestSyntheticUndoableHistoryShape(t *testing.T) {
	reg := workload.Registry()
	for _, c := range []struct {
		cancelled int
		replay    bool
		perReq    int
	}{{0, false, 4}, {1, false, 8}, {0, true, 6}, {1, true, 10}, {2, false, 12}} {
		h, specs := SyntheticUndoableHistory(reg, 3, c.cancelled, c.replay)
		if len(specs) != 3 || len(h) != 3*c.perReq {
			t.Errorf("cancelled=%d replay=%v: %d specs, %d events, want 3 and %d", c.cancelled, c.replay, len(specs), len(h), 3*c.perReq)
		}
		if err := h.WellFormed(); err != nil {
			t.Errorf("cancelled=%d replay=%v: %v", c.cancelled, c.replay, err)
		}
		if ok, _ := reduce.New(reg).XAbleTo(h, specs); !ok {
			t.Errorf("cancelled=%d replay=%v: not x-able:\n%v", c.cancelled, c.replay, h)
		}
	}
}

func TestSyntheticHistoryShape(t *testing.T) {
	reg := workload.Registry()
	h, specs := SyntheticHistory(reg, 4, 3)
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	// Per request: 2 dangling starts + pair + 2 duplicate completions = 6.
	if len(h) != 4*6 {
		t.Errorf("events = %d, want 24", len(h))
	}
}

// TestT9ShardScaling pins the shard-scaling table's qualitative shape —
// the paper's composition claim at scale: every row of the sharded
// deployment verifies exactly-once end to end (per-shard R2–R4 plus
// global routing), protocol cost per request stays flat, and aggregate
// throughput in virtual time scales at least 3× from 1 shard to 4.
func TestT9ShardScaling(t *testing.T) {
	requests := 0 // table default
	if testing.Short() {
		requests = 48
	}
	rows := TableT9(1, requests)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (1, 2, 4, 8 shards)", len(rows))
	}
	for _, r := range rows {
		if !r.XAble || !r.Replied {
			t.Errorf("%d shards: x-able %v replied %v — composition must hold on every row", r.Shards, r.XAble, r.Replied)
		}
		// Sharding buys throughput with parallel groups, not cheaper
		// requests: per-request message cost must not drift.
		if r.MsgsPerReq < 4 || r.MsgsPerReq > 8 {
			t.Errorf("%d shards: msgs/req = %.1f, outside the nice-run protocol cost band", r.Shards, r.MsgsPerReq)
		}
	}
	if !testing.Short() {
		if ratio := rows[2].OpsPerVSec / rows[0].OpsPerVSec; ratio < 3 {
			t.Errorf("1→4 shard scaling = %.2fx, want ≥3x (simtimes: 1sh %v, 4sh %v)",
				ratio, rows[0].SimTime, rows[2].SimTime)
		}
	}
	// Monotone scaling across the whole sweep, with slack for skew noise.
	for i := 1; i < len(rows); i++ {
		if rows[i].OpsPerVSec <= rows[i-1].OpsPerVSec {
			t.Errorf("throughput not increasing: %d shards %.0f → %d shards %.0f ops/vsec",
				rows[i-1].Shards, rows[i-1].OpsPerVSec, rows[i].Shards, rows[i].OpsPerVSec)
		}
	}
}

// TestT11SaturationCurve pins the throughput plane's headline claims.
// Every point on every curve must be a verified exactly-once run — an
// unverified row is excluded from peaks by construction, so the ratio
// check would fail loudly too. The shape checks are the two things a
// saturation experiment exists to show: the unbatched plane hits a
// capacity wall (latency explodes past the knee while throughput
// plateaus), and batching moves the wall by at least 3×.
func TestT11SaturationCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweep skipped in -short mode")
	}
	rows := TableT11(1)
	if len(rows) != 3*(1+len(t11Rates)) {
		t.Fatalf("rows = %d, want %d", len(rows), 3*(1+len(t11Rates)))
	}
	for _, r := range rows {
		if !r.XAble || !r.Replied {
			t.Errorf("%s %s rate %d: x-able %v replied %v — every swept point must verify",
				r.Config, r.Mode, r.Rate, r.XAble, r.Replied)
		}
	}
	peaks := T11Peak(rows)
	if ratio := peaks["batched+pipelined"] / peaks["unbatched"]; ratio < 3 {
		t.Errorf("batched+pipelined peak %.0f vs unbatched peak %.0f ops/vsec = %.2fx, want ≥3x",
			peaks["batched+pipelined"], peaks["unbatched"], ratio)
	}
	// The unbatched knee: past saturation the offered load keeps rising
	// but throughput does not follow, and queueing shows up as latency.
	var low, high T11Row
	for _, r := range rows {
		if r.Config != "unbatched" || r.Mode != "open" {
			continue
		}
		if r.Rate == t11Rates[0] {
			low = r
		}
		if r.Rate == t11Rates[len(t11Rates)-1] {
			high = r
		}
	}
	if high.OpsPerVSec > peaks["unbatched"]*1.01 {
		t.Errorf("unbatched did not saturate: %.0f ops/vsec at rate %d", high.OpsPerVSec, high.Rate)
	}
	if high.LatP50 < 10*low.LatP50 {
		t.Errorf("unbatched overload latency p50 %v is not the post-knee blowup (baseline %v)",
			high.LatP50, low.LatP50)
	}
	// Batching absorbs the same overload with bounded latency: the batched
	// p99 at the highest rate stays well under the unbatched p50 there.
	for _, r := range rows {
		if r.Config == "batched+pipelined" && r.Rate == high.Rate && r.LatP99 >= high.LatP50 {
			t.Errorf("batched+pipelined p99 %v at rate %d not under unbatched p50 %v",
				r.LatP99, r.Rate, high.LatP50)
		}
	}
}

// TestT12RecoveryMatrix pins the durable-state plane's headline: x-ability
// holds at rate 1.0 across the failure-density matrix with restarts on and
// off, the duplicate-replay audit stays clean, and the restart column
// actually does more stable-storage work (revived replicas replay and keep
// appending). The sync curve must not move verdicts — only virtual time.
func TestT12RecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep skipped in -short mode")
	}
	// 64 seeds a cell: at ops 2 and 4 the restart column's extra appends
	// are a few percent of the mean, which a 16-seed cell does not resolve
	// (26.6 vs 26.6 and 28.5 vs 28.7 under the xrand streams; the pass
	// under math/rand's streams was that sample's luck). At 64 and 256
	// seeds the order holds under both generators.
	rows := TableT12(1, 64, 0)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byOps := make(map[int]map[bool]T12Row)
	for _, r := range rows {
		if r.XAbleRate != 1 || r.RepliedRate != 1 {
			t.Errorf("ops %d restarts %v: x-able %.4f replied %.4f, want 1.0",
				r.Ops, r.Restarts, r.XAbleRate, r.RepliedRate)
		}
		if r.DupRuns != 0 {
			t.Errorf("ops %d restarts %v: %d duplicate-replay runs, want 0", r.Ops, r.Restarts, r.DupRuns)
		}
		if r.MeanWALAppends <= 0 {
			t.Errorf("ops %d restarts %v: no WAL activity in a durable sweep", r.Ops, r.Restarts)
		}
		if byOps[r.Ops] == nil {
			byOps[r.Ops] = make(map[bool]T12Row)
		}
		byOps[r.Ops][r.Restarts] = r
	}
	for ops, pair := range byOps {
		if pair[true].MeanWALAppends <= pair[false].MeanWALAppends {
			t.Errorf("ops %d: restart column appends %.1f not above permanent-crash column %.1f",
				ops, pair[true].MeanWALAppends, pair[false].MeanWALAppends)
		}
	}
	sync := TableT12Sync(1, 6)
	if len(sync) != 4 {
		t.Fatalf("sync rows = %d, want 4", len(sync))
	}
	for _, r := range sync {
		if r.XAbleRate != 1 {
			t.Errorf("sync %v: x-able %.4f, want 1.0 — the tariff may cost time, never correctness", r.Tariff, r.XAbleRate)
		}
	}
	if sync[0].MeanSyncTime != 0 {
		t.Errorf("zero tariff charged %v of sync time, want 0", sync[0].MeanSyncTime)
	}
	if sync[len(sync)-1].MeanSimTime <= sync[0].MeanSimTime {
		t.Errorf("1ms tariff sim time %v not above free-append sim time %v — durability priced at nothing",
			sync[len(sync)-1].MeanSimTime, sync[0].MeanSimTime)
	}
}

// TestT13CoverageShape pins the observability table's qualitative
// asymmetry (claim E16): deterministic fault plans collapse to a few
// interleaving classes while the randomized/partitioned rows saturate at
// (nearly) one class per seed with a hot tail — the signal that says
// where sweep budget buys new coverage.
func TestT13CoverageShape(t *testing.T) {
	const seeds = 48
	rows := TableT13(1, seeds, 0)
	if len(rows) < 4 {
		t.Fatalf("T13 rows = %d, want at least 4", len(rows))
	}
	byName := map[string]T13Row{}
	for _, r := range rows {
		byName[r.Scenario] = r
		if r.Seeds != seeds {
			t.Errorf("%s: folded %d runs, want %d", r.Scenario, r.Seeds, seeds)
		}
		if r.Classes < 1 || r.Classes > r.Seeds {
			t.Errorf("%s: %d classes out of range [1,%d]", r.Scenario, r.Classes, r.Seeds)
		}
		if r.SubmitsP50 < 1 {
			t.Errorf("%s: submit counter silent (p50 %d)", r.Scenario, r.SubmitsP50)
		}
		if r.LatP50 <= 0 {
			t.Errorf("%s: no latency mass (p50 %v)", r.Scenario, r.LatP50)
		}
	}
	nice, rand := byName["nice"], byName["random-faults"]
	if nice.Classes*2 >= seeds {
		t.Errorf("nice visits %d/%d classes — deterministic plan should collapse", nice.Classes, seeds)
	}
	if rand.Classes*2 <= seeds {
		t.Errorf("random-faults visits %d/%d classes — randomized plan should spread", rand.Classes, seeds)
	}
	if rand.TailNewRate <= nice.TailNewRate {
		t.Errorf("tail new-class rate: random-faults %.2f not above nice %.2f",
			rand.TailNewRate, nice.TailNewRate)
	}
	// The table is a deterministic function of (seed, seeds).
	again := TableT13(1, seeds, 1)
	if !reflect.DeepEqual(rows, again) {
		t.Errorf("T13 not deterministic across worker counts:\n%+v\nvs\n%+v", rows, again)
	}
}

// TestT14TotalLossMatrix pins the total-loss plane's headline (claim
// E17): deepening the outage regime from minority to majority to total
// moves none of the verdict columns — x-able 1.0, replied 1.0, zero
// duplicate-replay runs — while compaction visibly fires (live records
// strictly below appends). The snapshot curve must price the bound in
// virtual time only.
func TestT14TotalLossMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("total-loss sweep skipped in -short mode")
	}
	rows := TableT14(1, 16, 0)
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	regimes := map[string]bool{}
	for _, r := range rows {
		regimes[r.Regime] = true
		if r.XAbleRate != 1 || r.RepliedRate != 1 {
			t.Errorf("%s ops %d: x-able %.4f replied %.4f, want 1.0",
				r.Regime, r.Ops, r.XAbleRate, r.RepliedRate)
		}
		if r.DupRuns != 0 {
			t.Errorf("%s ops %d: %d duplicate-replay runs, want 0", r.Regime, r.Ops, r.DupRuns)
		}
		if r.MeanWALAppends <= 0 {
			t.Errorf("%s ops %d: no WAL activity in a durable sweep", r.Regime, r.Ops)
		}
		if r.MeanCompactions <= 0 {
			t.Errorf("%s ops %d: compaction never fired at threshold 8", r.Regime, r.Ops)
		}
		if r.MeanLiveRecords >= r.MeanWALAppends {
			t.Errorf("%s ops %d: live records %.1f not below appends %.1f — the log is not bounded",
				r.Regime, r.Ops, r.MeanLiveRecords, r.MeanWALAppends)
		}
	}
	for _, want := range []string{"minority", "majority", "total"} {
		if !regimes[want] {
			t.Errorf("regime %q missing from the matrix", want)
		}
	}
	snap := TableT14Snap(1, 6)
	if len(snap) != 4 {
		t.Fatalf("snap rows = %d, want 4", len(snap))
	}
	for _, r := range snap {
		if r.XAbleRate != 1 {
			t.Errorf("snap %v: x-able %.4f, want 1.0 — the tariff may cost time, never correctness", r.Tariff, r.XAbleRate)
		}
		if r.MeanCompactions <= 0 {
			t.Errorf("snap %v: compaction never fired", r.Tariff)
		}
	}
	if snap[0].MeanSyncTime != 0 {
		t.Errorf("zero tariff charged %v of sync time, want 0", snap[0].MeanSyncTime)
	}
	if last := snap[len(snap)-1]; last.MeanSimTime <= snap[0].MeanSimTime || last.MeanSyncTime <= 0 {
		t.Errorf("1ms snapshot tariff (sync %v, sim %v) not priced above the free point (sim %v)",
			last.MeanSyncTime, last.MeanSimTime, snap[0].MeanSimTime)
	}
}
