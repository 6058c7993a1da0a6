package scenario

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xability/internal/obs"
)

// VerdictDistribution aggregates the outcomes of one scenario across a
// seed population. Where a single run answers "did this schedule stay
// exactly-once", a distribution answers "at what rate, over how many
// schedules" — the replication-at-scale view. Distributions fold outcomes
// in seed order, so equal (scenario, seeds) inputs produce deeply equal
// distributions regardless of worker count or interleaving.
type VerdictDistribution struct {
	// Scenario names the swept scenario.
	Scenario string
	// Runs is the number of seeds executed.
	Runs int
	// XAble counts runs whose history verified as x-able.
	XAble int
	// Replied counts runs where every request was answered (R2).
	Replied int
	// Effects histograms the environment audit: effects-in-force → run
	// count. An exactly-once protocol concentrates the mass on the
	// request count (1 for the standard single-request scenarios).
	Effects map[int]int
	// Executions histograms how many replicas executed the first
	// request's action: the primary-backup ↔ active drift, as a
	// distribution.
	Executions map[int]int
	// Attempts and Messages total the clients' submit attempts and the
	// networks' sends over the whole sweep.
	Attempts int
	Messages int
	// ReplayDuplicates counts runs whose duplicate-replay audit found any
	// (action, input) pair in force more often than the workload
	// submitted it — for a correct protocol this is zero even under
	// crash→restart schedules.
	ReplayDuplicates int
	// WALAppends totals stable-storage appends over the sweep (zero for
	// non-durable scenarios). WALCompactions totals compaction passes and
	// WALLiveRecords the per-run live-record counts at settle — the sweep
	// view of "a compacting log is bounded by live state".
	WALAppends     int
	WALCompactions int
	WALLiveRecords int
	// Failing lists the seeds whose run was not x-able or went
	// unanswered — the inputs a schedule-shrinking pass starts from.
	Failing []int64
	// Counterexamples maps failing seeds to their rendered minimal
	// counterexample traces. Filled only when sweeping with
	// SweepOptions.ShrinkFailing (and the shrinker is linked; see
	// RegisterShrinker).
	Counterexamples map[int64]string
	// Rollup folds the per-run metrics snapshots (p50/p99/max/mean per
	// counter, distinct interleaving-class coverage). Filled only when
	// sweeping with SweepOptions.Metrics.
	Rollup *obs.Rollup
	// Traces maps failing seeds to their exported Chrome trace-event JSON,
	// from a deterministic re-run under tracing. Filled only when sweeping
	// with SweepOptions.TraceFailing.
	Traces map[int64][]byte
}

// XAbleRate is the fraction of runs that verified x-able.
func (d VerdictDistribution) XAbleRate() float64 { return rate(d.XAble, d.Runs) }

// RepliedRate is the fraction of runs where every request was answered.
func (d VerdictDistribution) RepliedRate() float64 { return rate(d.Replied, d.Runs) }

func rate(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// String renders the distribution as a compact multi-line summary.
func (d VerdictDistribution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d runs  x-able %.4f  replied %.4f",
		d.Scenario, d.Runs, d.XAbleRate(), d.RepliedRate())
	fmt.Fprintf(&b, "\n  effects-in-force: %s", histogram(d.Effects))
	fmt.Fprintf(&b, "\n  executions:       %s", histogram(d.Executions))
	if d.Runs > 0 {
		fmt.Fprintf(&b, "\n  mean attempts %.2f  mean msgs %.1f",
			float64(d.Attempts)/float64(d.Runs), float64(d.Messages)/float64(d.Runs))
	}
	if d.WALAppends > 0 || d.ReplayDuplicates > 0 {
		fmt.Fprintf(&b, "\n  wal appends %d  duplicate-replay runs %d",
			d.WALAppends, d.ReplayDuplicates)
		if d.WALCompactions > 0 {
			fmt.Fprintf(&b, "  compactions %d  live records %d",
				d.WALCompactions, d.WALLiveRecords)
		}
	}
	if d.Rollup != nil {
		fmt.Fprintf(&b, "\n%s", indent(d.Rollup.String(), "  "))
	}
	if len(d.Failing) > 0 {
		n := len(d.Failing)
		show := d.Failing
		if n > 8 {
			show = show[:8]
		}
		fmt.Fprintf(&b, "\n  failing seeds (%d): %v", n, show)
	}
	// Counterexamples render in seed order (the map is keyed by seed, but
	// Failing preserves fold order).
	for _, seed := range d.Failing {
		if cx, ok := d.Counterexamples[seed]; ok {
			fmt.Fprintf(&b, "\n  minimal counterexample, seed %d:\n%s", seed, indent(cx, "    "))
		}
	}
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

func histogram(h map[int]int) string {
	if len(h) == 0 {
		return "(empty)"
	}
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d×%d", k, h[k]))
	}
	return strings.Join(parts, "  ")
}

// Seeds returns n consecutive seeds starting at base — the standard seed
// population for a sweep.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// maxCounterexamples bounds how many failing seeds of a sweep are shrunk or
// re-run under tracing. Both are sequential and cost many re-executions per
// seed; a sweep with hundreds of failing seeds wants a bound.
const maxCounterexamples = 3

// SweepOptions tunes a sweep beyond its seed population.
type SweepOptions struct {
	// Workers is the parallel worker count (0 selects GOMAXPROCS).
	Workers int
	// ShrinkFailing turns failing seeds into minimal counterexample
	// traces: after the fold, up to maxCounterexamples failing seeds are
	// delta-debugged (record → ddmin-edited replays) and the rendered
	// minimal traces land in VerdictDistribution.Counterexamples. The
	// shrinker lives in internal/shrink and registers itself via
	// RegisterShrinker when linked (the root xability package and
	// cmd/xsim always link it); without it the knob is a no-op.
	ShrinkFailing bool
	// ShrinkBudget caps each shrink's Execute invocations (0 selects the
	// shrinker default).
	ShrinkBudget int
	// Metrics arms the observability plane for every run: each worker
	// keeps one obs.Metrics registry, reset per seed, and the per-run
	// snapshots fold (in seed order, so deterministically) into
	// VerdictDistribution.Rollup.
	Metrics bool
	// TraceFailing re-runs up to maxCounterexamples failing seeds under
	// request tracing and stores the exported Chrome trace-event JSON in
	// VerdictDistribution.Traces. The re-run is deterministic — same
	// (scenario, seed), observation does not perturb the schedule — so the
	// trace depicts exactly the failing run.
	TraceFailing bool
	// Progress, when non-nil, is called after each completed run with the
	// number of runs done so far and the total. Workers call it
	// concurrently; the callback must be safe for that (the CLI's is a
	// mutex-guarded rate-limited printer).
	Progress func(done, total int)
}

// shrinkHook is the registered shrinker (see RegisterShrinker). It returns
// the rendered minimal counterexample for (sc, seed) and whether shrinking
// succeeded.
var shrinkHook func(sc Scenario, seed int64, budget int) (string, bool)

// RegisterShrinker installs the schedule shrinker Sweep uses for
// SweepOptions.ShrinkFailing. internal/shrink calls it from its init; the
// indirection exists because the shrinker re-runs scenarios (it imports
// this package) and so cannot be imported from here.
func RegisterShrinker(fn func(sc Scenario, seed int64, budget int) (string, bool)) {
	shrinkHook = fn
}

// Sweep executes the scenario once per seed across parallel workers and
// folds the outcomes into a VerdictDistribution. Each run is an
// independent cluster on its own virtual clock, so runs are CPU-bound and
// embarrassingly parallel; workers of 0 selects GOMAXPROCS. The fold
// happens in seed order after all runs finish, so the distribution is
// deterministic for a given (scenario, seeds) pair however many workers
// execute it.
func Sweep(sc Scenario, seeds []int64, workers int) VerdictDistribution {
	return SweepWithOptions(sc, seeds, SweepOptions{Workers: workers})
}

// SweepWithOptions is Sweep with the full option set (worker count,
// shrink-failing-seeds). The distribution stays deterministic for a given
// (scenario, seeds, options) input regardless of worker count: runs fold
// in seed order and shrinking is a sequential post-pass over that order.
func SweepWithOptions(sc Scenario, seeds []int64, opts SweepOptions) VerdictDistribution {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	outcomes := make([]Outcome, len(seeds))
	idx := make(chan int)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { //xvet:ok baregoroutine wall-side sweep worker: each seed's run builds (or recycles) its own virtual clock; the worker is outside them all
			defer wg.Done()
			// Each worker recycles one network across its seeds
			// (reset-and-rerun): the substrate — endpoints, interned
			// process tables, event pools — survives between runs, the
			// protocol actors are rebuilt per seed, and outcomes stay
			// bit-equal to fresh-world runs (pinned by the determinism
			// regressions).
			scratch := &runScratch{}
			// One registry per worker, reset per seed: counters are read
			// only through the per-run snapshot, so reuse is invisible.
			var run *obs.Run
			if opts.Metrics {
				run = &obs.Run{Metrics: obs.NewMetrics()}
			}
			for i := range idx {
				if run != nil {
					run.Metrics.Reset()
				}
				o := execute(sc, seeds[i], RunOptions{Obs: run}, scratch)
				o.History = nil // bound sweep memory to the verdicts
				outcomes[i] = o
				if opts.Progress != nil {
					opts.Progress(int(done.Add(1)), len(seeds))
				}
			}
		}()
	}
	for i := range seeds {
		idx <- i
	}
	close(idx)
	wg.Wait() //xvet:ok detachedwait joins wall-side sweep workers; the sweeping goroutine is attached to no clock

	d := VerdictDistribution{
		Scenario:   sc.Name,
		Runs:       len(seeds),
		Effects:    make(map[int]int),
		Executions: make(map[int]int),
	}
	for _, o := range outcomes {
		if o.XAble {
			d.XAble++
		}
		if o.Replied {
			d.Replied++
		}
		d.Effects[o.EffectsInForce]++
		d.Executions[o.Executions]++
		d.Attempts += o.Attempts
		d.Messages += o.Messages
		if o.ReplayDuplicates > 0 {
			d.ReplayDuplicates++
		}
		d.WALAppends += o.WALAppends
		d.WALCompactions += o.WALCompactions
		d.WALLiveRecords += o.WALLiveRecords
		if !o.XAble || !o.Replied {
			d.Failing = append(d.Failing, o.Seed)
		}
	}
	if opts.Metrics {
		snaps := make([]*obs.Snapshot, len(outcomes))
		for i := range outcomes {
			snaps[i] = outcomes[i].Obs
		}
		d.Rollup = obs.NewRollup(snaps)
	}
	if opts.TraceFailing && len(d.Failing) > 0 {
		d.Traces = make(map[int64][]byte)
		for _, seed := range d.Failing {
			if len(d.Traces) >= maxCounterexamples {
				break
			}
			tr := obs.NewTrace(0)
			ExecuteObserved(sc, seed, &obs.Run{Trace: tr})
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err == nil {
				d.Traces[seed] = buf.Bytes()
			}
		}
	}
	if opts.ShrinkFailing && shrinkHook != nil && len(d.Failing) > 0 {
		d.Counterexamples = make(map[int64]string)
		for _, seed := range d.Failing {
			if len(d.Counterexamples) >= maxCounterexamples {
				break
			}
			if cx, ok := shrinkHook(sc, seed, opts.ShrinkBudget); ok {
				d.Counterexamples[seed] = cx
			}
		}
	}
	return d
}
