package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// failShareBound is the absolute rise in fail_share that counts as a
// regression.
const failShareBound = 0.0005

// judge compares one end-to-end metric of one workload across two full
// runs. A change counts as worse or better only when its median lies
// outside both the metric's bound and the parent's own interquartile
// spread; when the parent's spread is wider than the bound the metric
// cannot resolve a regression of that size and is reported as such.
func judge(def metricDef, parent, change summary) (verdict string, delta float64) {
	if parent.Median == 0 {
		return "unresolved", 0
	}
	delta = (change.Median - parent.Median) / math.Abs(parent.Median)
	iqr := parent.Q3 - parent.Q1
	if iqr/math.Abs(parent.Median) > def.Bound {
		return "unresolved", delta
	}
	worse := delta
	if def.Better == "higher" {
		worse = -delta
	}
	outside := math.Abs(change.Median-parent.Median) > iqr
	switch {
	case worse > def.Bound && outside:
		return "worse", delta
	case -worse > def.Bound && outside:
		return "better", delta
	}
	return "same", delta
}

func loadReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// runCompare prints, per (metric, workload), the delta of medians and its
// verdict, then the exact-count fingerprints; it returns 1 on any worse.
func runCompare(parentPath, changePath string) int {
	parent, err := loadReport(parentPath)
	if err != nil {
		fail(2, "%v", err)
	}
	change, err := loadReport(changePath)
	if err != nil {
		fail(2, "%v", err)
	}
	fmt.Printf("parent %s  (%s, %s, commit %s)\n", parentPath, parent.Host["cpu"], parent.Host["go"], parent.Host["commit"])
	fmt.Printf("change %s  (%s, %s, commit %s)\n", changePath, change.Host["cpu"], change.Host["go"], change.Host["commit"])
	names := make([]string, 0, len(parent.Workloads))
	for name := range parent.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		p, c := parent.Workloads[name], change.Workloads[name]
		if c == nil {
			fmt.Printf("%-16s missing from the change's run\n", name)
			continue
		}
		for _, def := range endToEnd {
			verdict, delta := judge(def, p.EndToEnd[def.Name], c.EndToEnd[def.Name])
			if verdict == "worse" {
				code = 1
			}
			fmt.Printf("%-16s %-16s %14.6g -> %-14.6g %+7.2f%%  %-10s (bound %.0f%%, parent spread %.2f%%, n=%d/%d)\n",
				name, def.Name, p.EndToEnd[def.Name].Median, c.EndToEnd[def.Name].Median, 100*delta, verdict,
				100*def.Bound, 100*spread(p.EndToEnd[def.Name].Values), p.EndToEnd[def.Name].N, c.EndToEnd[def.Name].N)
		}
		verdict := "same"
		if c.FailShare > p.FailShare+failShareBound {
			verdict, code = "worse", 1
		}
		fmt.Printf("%-16s %-16s %14.6g -> %-14.6g %+8.4f  %-10s (bound +%.4f absolute)\n",
			name, "fail_share", p.FailShare, c.FailShare, c.FailShare-p.FailShare, verdict, failShareBound)
		eq := "=="
		if p.Finger != c.Finger || !p.Exact || !c.Exact {
			eq = "!="
		}
		fmt.Printf("%-16s %-16s %14s %s %s\n", name, "fingerprint", p.Finger, eq, c.Finger)
	}
	return code
}
