package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// sample is one child run: a line of samples.jsonl.
type sample struct {
	Workload string  `json:"workload"`
	Trial    int     `json:"trial"`
	Order    int     `json:"order"` // position in the shuffled schedule
	Trace    int     `json:"trace"`
	WallS    float64 `json:"wall_s"`
	Crashed  string  `json:"crashed,omitempty"`
	Result   *result `json:"result,omitempty"`
	Detail   *detail `json:"detail,omitempty"`
}

// summary is one metric of one workload over its trials.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Op        string             `json:"op"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailShare float64            `json:"fail_share"`
	Crashed   int                `json:"crashed_trials"`
	Failing   []string           `json:"failing,omitempty"`
	Exact     bool               `json:"exact"` // fingerprints of all trials agree
	Finger    string             `json:"fingerprint"`
	Mismatch  int                `json:"dist_mismatch"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Rounds    []int              `json:"rounds_per_trial"`
	Parts     map[string]int     `json:"counts_per_round,omitempty"`
	Why       string             `json:"why"`
}

// report is result.json.
type report struct {
	Schema     string                     `json:"schema"`
	Host       map[string]string          `json:"host"`
	Seed       int64                      `json:"seed"`
	RunSeconds float64                    `json:"run_seconds"`
	Trials     int                        `json:"trials"`
	Smoke      bool                       `json:"smoke"`
	Model      string                     `json:"model"`
	EndToEnd   []metricDef                `json:"end_to_end"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

// hostFingerprint names the machine and toolchain a result was measured on.
func hostFingerprint() map[string]string {
	h := map[string]string{
		"cores":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": "1",
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h["commit"] = strings.TrimSpace(string(out))
	}
	return h
}

// runChild runs argv to completion and parses the run's last two lines.
// A child that dies, or ends without a result line, is reported in
// Crashed; its trial then counts every operation as failed.
func runChild(argv []string) sample {
	var s sample
	var stdout bytes.Buffer
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t := wallNow()
	err := cmd.Run()
	s.WallS = since(t)
	if err != nil {
		s.Crashed = err.Error()
		return s
	}
	var lines []string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		s.Crashed = "no result line"
		return s
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		s.Crashed = "result line: " + err.Error()
		return s
	}
	s.Result = &res
	if rest, ok := strings.CutPrefix(lines[len(lines)-2], "detail "); ok {
		var d detail
		if json.Unmarshal([]byte(rest), &d) == nil {
			s.Detail = &d
		}
	}
	return s
}

// failShare is failed ÷ attempted over a workload's trials. A crashed
// trial attempted what the clean trials attempted on average (at least
// one operation) and failed all of it.
func failShare(samples []sample) (attempted, failed, crashed int) {
	clean := 0
	for _, s := range samples {
		if s.Result != nil {
			attempted += s.Result.Attempted
			failed += s.Result.Failed
			clean++
		}
	}
	lost := 1
	if clean > 0 && attempted/clean > 0 {
		lost = attempted / clean
	}
	for _, s := range samples {
		if s.Result == nil {
			attempted += lost
			failed += lost
			crashed++
		}
	}
	return attempted, failed, crashed
}

// summarize folds a workload's samples into its report.
func summarize(w *workloadDef, samples []sample, scale int) *workloadReport {
	rep := &workloadReport{
		Op: w.Op, Why: w.Why, Exact: true,
		EndToEnd: make(map[string]summary),
	}
	if len(w.Parts) > 0 {
		rep.Parts = make(map[string]int)
		for _, p := range w.Parts {
			rep.Parts[p.Scenario] = scaled(p.Seeds, scale)
		}
	}
	var untraced []sample
	for _, s := range samples {
		if s.Trace == 0 {
			untraced = append(untraced, s)
			continue
		}
		if s.Result != nil {
			rep.PerLayer = make(map[string]float64)
			for name, v := range s.Result.Metrics {
				rep.PerLayer[name] = v.Value
			}
		}
	}
	rep.Attempted, rep.Failed, rep.Crashed = failShare(untraced)
	if rep.Attempted > 0 {
		rep.FailShare = float64(rep.Failed) / float64(rep.Attempted)
	}
	for _, def := range endToEnd {
		var vals []float64
		for _, s := range untraced {
			if s.Result != nil {
				vals = append(vals, s.Result.Metrics[def.Name].Value)
			}
		}
		q1, q3 := quartiles(vals)
		rep.EndToEnd[def.Name] = summary{Unit: def.Unit, Median: median(vals), Q1: q1, Q3: q3, N: len(vals), Values: vals}
	}
	for _, s := range untraced {
		if s.Detail == nil {
			rep.Exact = false
			continue
		}
		d := s.Detail
		rep.Rounds = append(rep.Rounds, d.Rounds)
		rep.Mismatch += d.Mismatch
		if rep.Finger == "" {
			rep.Finger, rep.Failing = d.Fingerprint, d.Failing
		} else if d.Fingerprint != rep.Finger {
			rep.Exact = false
		}
	}
	return rep
}

// fullRun is the people's form: trials of every selected workload, each
// in a fresh child of this binary so heap and GC state do not carry over
// and a panic costs one trial, in an order shuffled from the seed so that
// position in the run does not alias onto a workload.
func fullRun(selected []*workloadDef, o runOpts, trials int, layers bool) int {
	self, err := os.Executable()
	if err != nil {
		fail(1, "%v", err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fail(1, "%v", err)
	}
	type job struct {
		w     *workloadDef
		trial int
		trace int
	}
	var jobs []job
	for _, w := range selected {
		for t := 0; t < trials; t++ {
			jobs = append(jobs, job{w, t, 0})
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	if layers {
		for _, w := range selected {
			jobs = append(jobs, job{w, 0, 1})
		}
	}

	fmt.Printf("# full run: %d workload(s) x %d trial(s) of %gs, seed %d, shuffled; layers %v; out %s\n",
		len(selected), trials, o.seconds, o.seed, layers, o.outDir)
	byWorkload := make(map[string][]sample)
	var all []sample
	for i, j := range jobs {
		argv := []string{self, "--workload", j.w.Name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(j.trace), "-out", o.outDir}
		if o.smoke {
			argv = append(argv, "-smoke")
		}
		s := runChild(argv)
		s.Workload, s.Trial, s.Order, s.Trace = j.w.Name, j.trial, i, j.trace
		all = append(all, s)
		byWorkload[j.w.Name] = append(byWorkload[j.w.Name], s)
		status := "ok"
		if s.Crashed != "" {
			status = "CRASHED: " + s.Crashed
		}
		fmt.Printf("# [%d/%d] %s trial %d trace %d: %.1fs %s\n", i+1, len(jobs), j.w.Name, j.trial, j.trace, s.WallS, status)
	}

	rep := report{
		Schema: "xability-bench/1", Host: hostFingerprint(), Seed: o.seed, RunSeconds: o.seconds, Trials: trials, Smoke: o.smoke,
		Model:     "unvalidated: no hardware reference in the repository; delay uniform 0-200us, vCPU 20us/proposal + 5us/execution (saturation), WAL sync 0",
		EndToEnd:  endToEnd,
		Workloads: make(map[string]*workloadReport),
	}
	for _, w := range selected {
		rep.Workloads[w.Name] = summarize(w, byWorkload[w.Name], o.scale())
	}
	if err := writeJSON(filepath.Join(o.outDir, "result.json"), rep); err != nil {
		fail(1, "%v", err)
	}
	var lines bytes.Buffer
	enc := json.NewEncoder(&lines)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			fail(1, "%v", err)
		}
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "samples.jsonl"), lines.Bytes(), 0o644); err != nil {
		fail(1, "%v", err)
	}
	printReport(selected, rep)
	for _, w := range selected {
		r := rep.Workloads[w.Name]
		if r.Failed > 0 || r.Crashed > 0 {
			return 1
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints every metric of a full run by name and unit: the
// end-to-end ones as median [q1, q3] n, then the traced run's layers.
func printReport(selected []*workloadDef, rep report) {
	for _, w := range selected {
		r := rep.Workloads[w.Name]
		fmt.Printf("\n== %s (one op = one %s)\n", w.Name, w.Op)
		for _, def := range endToEnd {
			s := r.EndToEnd[def.Name]
			fmt.Printf("%-44s %14.6g %-6s [q1 %.6g, q3 %.6g] n=%d spread %.2f%% of bound %.0f%%\n",
				def.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N, 100*spread(s.Values), 100*def.Bound)
		}
		fmt.Printf("%-44s %14.6g %-6s (%d failed of %d attempted, %d crashed trial(s)); failing %v\n",
			"fail_share", r.FailShare, "share", r.Failed, r.Attempted, r.Crashed, r.Failing)
		exact := "=="
		if !r.Exact {
			exact = "!="
		}
		fmt.Printf("%-44s %14s        trials %s; dist_mismatch %d\n", "fingerprint", r.Finger, exact, r.Mismatch)
		for _, def := range perLayer {
			if v, ok := r.PerLayer[def.Name]; ok && !(v == 0 || math.IsNaN(v)) {
				fmt.Printf("%-44s %14.6g %s\n", def.Name, v, def.Unit)
			}
		}
	}
}
