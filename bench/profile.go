package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuBuckets are the names under which a profile sample's host CPU is
// reported: "where an operation goes".
var cpuBuckets = []string{"rng", "vclock", "simnet", "fd", "consensus", "core", "wal", "checker", "gc", "sched", "other"}

// bucketOf attributes one profile sample, given its stack leaf first.
// Garbage collection is recognised anywhere on the stack (its workers
// have no caller in the program); everything else goes to the package of
// the leaf frame, so a layer is charged only for its own instructions.
func bucketOf(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgscavenge") ||
			(strings.HasPrefix(f, "runtime.") && strings.Contains(f, "sweep")) {
			return "gc"
		}
	}
	leaf := stack[0]
	for _, b := range []struct{ prefix, bucket string }{
		{"math/rand.", "rng"},
		{"xability/internal/vclock.", "vclock"},
		{"xability/internal/simnet.", "simnet"},
		{"xability/internal/fd.", "fd"},
		{"xability/internal/consensus.", "consensus"},
		{"xability/internal/core.", "core"},
		{"xability/internal/shard.", "core"},
		{"xability/internal/wal.", "wal"},
		{"xability/internal/reduce.", "checker"},
		{"xability/internal/verify.", "checker"},
		{"xability/internal/event.", "checker"},
		{"xability/internal/pattern.", "checker"},
		{"runtime.", "sched"},
		{"runtime/internal/", "sched"},
		{"internal/runtime/", "sched"},
		{"sync.", "sched"},
		{"sync/atomic.", "sched"},
	} {
		if strings.HasPrefix(leaf, b.prefix) {
			return b.bucket
		}
	}
	return "other"
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// dashed rules, each "<value> <leaf>" followed by one caller per line.
// It returns the sampled time per bucket.
func parseTraces(out string) map[string]time.Duration {
	byBucket := make(map[string]time.Duration)
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byBucket[bucketOf(stack)] += value
		}
		stack = nil
	}
	inBlocks := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----") {
			flush()
			inBlocks = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlocks || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, strings.Join(fields, " "))
	}
	flush()
	return byBucket
}

// cpuShares runs fn under the CPU profiler and returns each bucket's
// share of the samples. The stacks are read back with the toolchain's own
// pprof, so the benchmark needs no profile decoder of its own.
func cpuShares(dir string, fn func()) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	var total time.Duration
	byBucket := parseTraces(string(out))
	for _, d := range byBucket {
		total += d
	}
	if total == 0 {
		return nil, fmt.Errorf("profile %s holds no samples", path)
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = float64(byBucket[b]) / float64(total)
	}
	return shares, nil
}
