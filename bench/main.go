// Command bench is the repository's benchmark: five workloads, two
// clocks, every layer timed from outside. See README.md.
//
// One run of one workload, the form BENCHMARK.json's command takes:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints the run's metrics by name and unit and ends with one JSON object
// {correct, attempted, failed, metrics}: with --trace 0 every end-to-end
// metric, with --trace 1 every per-layer metric (and bench/out/trace.*.json).
//
// A full run, for people and for the committed trajectory:
//
//	bench [-workloads a,b] [-trials 5] [-seed 1] [-layers] [-smoke] [-out dir]
//
// runs every trial in a fresh child process in shuffled order and writes
// result.json and samples.jsonl;
//
//	bench -compare parent/result.json change/result.json
//
// lays two full runs side by side and exits non-zero on a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the result line (the driver's form)")
		seed      = flag.Int64("seed", 1, "input seed: equal seeds give equal inputs")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		names     = flag.String("workloads", "", "full run: comma-separated workloads (default all)")
		trials    = flag.Int("trials", 5, "full run: trials per workload, each a fresh child process")
		layers    = flag.Bool("layers", false, "full run: add one traced run per workload")
		smoke     = flag.Bool("smoke", false, "1 trial at 1/50 of the counts, under 10 s in all")
		out       = flag.String("out", "bench/out", "directory for result.json, samples.jsonl and trace.*.json")
		compare   = flag.Bool("compare", false, "compare two result.json files: parent, then change")
		printSpec = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.Parse()

	o := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *out}
	if *smoke && !flagSet("seconds") {
		o.seconds = 0.2
	}
	switch {
	case *printSpec:
		os.Stdout.Write(manifest())
	case *compare:
		if flag.NArg() != 2 {
			fail(2, "usage: bench -compare parent/result.json change/result.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		w := findWorkload(*workload)
		if w == nil {
			fail(2, "unknown workload %q", *workload)
		}
		os.Exit(runOne(w, o, *trace))
	default:
		selected := workloads
		if *names != "" {
			selected = nil
			for _, name := range strings.Split(*names, ",") {
				w := findWorkload(strings.TrimSpace(name))
				if w == nil {
					fail(2, "unknown workload %q", name)
				}
				selected = append(selected, w)
			}
		}
		if *smoke {
			*trials = 1
		}
		os.Exit(fullRun(selected, o, *trials, *layers || *smoke))
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// runOne is one run of one workload. Everything but the last line is for
// people; the last line is the contract's.
func runOne(w *workloadDef, o runOpts, trace int) int {
	fmt.Print(header(w, o, trace))
	var (
		m   *metricSet
		d   detail
		res result
	)
	if trace == 0 {
		m, d, res = measure(w, o)
	} else {
		var err error
		if m, d, res, err = traced(w, o); err != nil {
			fail(1, "%v", err)
		}
	}
	printMetrics(m)
	fmt.Printf("# rounds %d of %d %ss each; fingerprint %s; dist_mismatch %d; failing %v\n",
		d.Rounds, d.OpsPerRound, d.Op, d.Fingerprint, d.Mismatch, d.Failing)
	line, _ := json.Marshal(d)
	fmt.Printf("detail %s\n", line)
	line, err := json.Marshal(res)
	if err != nil {
		fail(1, "%v", err)
	}
	fmt.Printf("%s\n", line)
	return 0
}

// printMetrics prints every metric of the set once, by name, with its unit.
func printMetrics(m *metricSet) {
	names := make([]string, 0, len(m.values))
	for name := range m.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-44s %16.6g %s\n", name, m.values[name], m.defs[name].Unit)
	}
}
