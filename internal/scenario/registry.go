package scenario

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

var (
	regMu     sync.RWMutex
	scenarios = make(map[string]Scenario)
)

// Register adds a scenario to the registry, with its documented zero-value
// defaults resolved so callers reading fields (protocol, replication
// degree) see the effective configuration. Names are unique; registering
// an empty or duplicate name is an error.
func Register(sc Scenario) error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	sc = sc.withDefaults().detached() // from the caller's builder handles
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := scenarios[sc.Name]; dup {
		return fmt.Errorf("scenario: duplicate name %q", sc.Name)
	}
	scenarios[sc.Name] = sc
	return nil
}

// MustRegister is Register, panicking on error. Builtin and test
// registrations use it.
func MustRegister(sc Scenario) {
	if err := Register(sc); err != nil {
		panic(err)
	}
}

// Get looks a scenario up by name. The returned scenario owns its fault
// plan and its specs: builder calls and writes on it do not mutate the
// registered scenario and cannot race with sweeps executing it.
func Get(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	sc, ok := scenarios[name]
	return sc.detached(), ok
}

// detached returns sc with its own copy of everything it points to — the
// fault plan, the injected failures, the requests, the random-fault
// options, the workload and open-loop specs — so that writing through one
// copy of a scenario reaches no other.
func (sc Scenario) detached() Scenario {
	sc.Plan = sc.Plan.Clone()
	sc.Failures = slices.Clone(sc.Failures)
	sc.Requests = slices.Clone(sc.Requests)
	sc.RandomFaults = clone(sc.RandomFaults)
	sc.Workload = clone(sc.Workload)
	sc.OpenLoop = clone(sc.OpenLoop)
	return sc
}

// clone returns a pointer to a copy of *p, or nil for nil.
func clone[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(scenarios))
	for name := range scenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// T1Set is the ordered scenario list that generates Table T1's rows: the
// x-ability protocol through a nice run and three adversarial schedules,
// then the baselines through the runs that expose them.
func T1Set() []string {
	return []string{
		"nice",
		"crash-failover",
		"partition",
		"delay-storm",
		"pb-nice",
		"pb-crash-failover",
		"active-nice",
	}
}

// SweepSet is the ordered scenario list Table T7 sweeps over seeds: the
// x-ability protocol's rows of T1, whose verdicts the paper claims hold on
// every schedule.
func SweepSet() []string {
	return []string{"nice", "crash-failover", "partition", "delay-storm"}
}
