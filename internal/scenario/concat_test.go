package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"xability/internal/simnet"
	"xability/internal/vclock"
	"xability/internal/xrand"
)

// firing is one observed fault-op execution: what fired, at which virtual
// instant.
type firing struct {
	At   time.Duration
	Call string
}

// opRecorder is a fake fault-plan Target that timestamps every call on its
// own virtual clock.
type opRecorder struct {
	clk *vclock.Virtual
	net *simnet.Network

	mu    sync.Mutex
	fired []firing
}

func newOpRecorder() *opRecorder {
	clk := vclock.NewVirtual()
	return &opRecorder{clk: clk, net: simnet.New(simnet.Config{Clock: clk})}
}

func (r *opRecorder) note(call string) {
	r.mu.Lock()
	r.fired = append(r.fired, firing{At: r.clk.Now(), Call: call})
	r.mu.Unlock()
}

func (r *opRecorder) Network() *simnet.Network { return r.net }
func (r *opRecorder) CrashServer(i int)        { r.note(fmt.Sprintf("crash(%d)", i)) }
func (r *opRecorder) SuspectEverywhere(p simnet.ProcessID, v bool) {
	r.note(fmt.Sprintf("suspect(%s,%v)", p, v))
}
func (r *opRecorder) ClientSuspect(p simnet.ProcessID, v bool) {
	r.note(fmt.Sprintf("clientSuspect(%s,%v)", p, v))
}

// applyAndCollect applies the plan on a fresh virtual clock and returns
// every op firing with its virtual-time instant.
func applyAndCollect(p *Plan) []firing {
	r := newOpRecorder()
	p.Apply(r.clk, r)
	r.clk.Sleep(p.Horizon() + time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]firing(nil), r.fired...)
}

// opSpec is one generated builder call, applicable to any plan under
// construction.
type opSpec struct {
	apply func(*Plan)
}

// genSpecs draws n random builder calls from the seeded generator —
// crashes, suspicion pulses, client suspicions, recoveries, at times in
// [0, 4ms), including deliberate ties.
func genSpecs(rng *rand.Rand, n int) []opSpec {
	procs := []simnet.ProcessID{"replica-0", "replica-1", "replica-2"}
	specs := make([]opSpec, 0, n)
	for i := 0; i < n; i++ {
		// Quantized times force same-instant ties across specs.
		at := time.Duration(rng.Intn(8)) * 500 * time.Microsecond
		p := procs[rng.Intn(len(procs))]
		switch rng.Intn(4) {
		case 0:
			idx := rng.Intn(3)
			specs = append(specs, opSpec{func(pl *Plan) { pl.CrashAt(at, idx) }})
		case 1:
			specs = append(specs, opSpec{func(pl *Plan) { pl.SuspectAt(at, p) }})
		case 2:
			specs = append(specs, opSpec{func(pl *Plan) { pl.ClientSuspectAt(at, p) }})
		default:
			specs = append(specs, opSpec{func(pl *Plan) { pl.UnsuspectAt(at, p) }})
		}
	}
	return specs
}

func buildPlan(specs []opSpec) *Plan {
	p := NewPlan()
	for _, s := range specs {
		s.apply(p)
	}
	return p
}

// TestConcatEqualsHandMergedProperty is the Concat property test: for
// randomly generated plans A and B, A.Concat(B) must execute identically —
// op for op, at every virtual-time instant, same-instant ties included —
// to the plan built by hand from A's builder calls followed by B's.
func TestConcatEqualsHandMergedProperty(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 25; trial++ {
		na, nb := 1+rng.Intn(5), 1+rng.Intn(5)
		specsA, specsB := genSpecs(rng, na), genSpecs(rng, nb)

		concat := buildPlan(specsA).Concat(buildPlan(specsB))
		merged := buildPlan(append(append([]opSpec{}, specsA...), specsB...))

		got, want := applyAndCollect(concat), applyAndCollect(merged)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: concat and hand-merged diverge\nconcat: %v\nmerged: %v\nplan:\n%s",
				trial, got, want, concat)
		}
		if len(got) == 0 {
			t.Fatalf("trial %d: no ops fired", trial)
		}
	}
}

// TestConcatVariadicAndEmpty pins the edge cases: multiple operands, empty
// and nil operands, and a nil receiver.
func TestConcatVariadicAndEmpty(t *testing.T) {
	a := NewPlan().CrashAt(time.Millisecond, 0)
	b := NewPlan().SuspectAt(2*time.Millisecond, "replica-1")
	c := NewPlan().HealAt(3 * time.Millisecond)

	all := a.Concat(b, nil, NewPlan(), c)
	if got := len(all.Ops()); got != 3 {
		t.Errorf("ops = %d, want 3", got)
	}
	if got := all.Horizon(); got != 3*time.Millisecond {
		t.Errorf("horizon = %v", got)
	}
	var nilPlan *Plan
	if got := nilPlan.Concat(a); len(got.Ops()) != 1 {
		t.Errorf("nil receiver concat = %d ops, want 1", len(got.Ops()))
	}
}

// TestConcatDoesNotMutate pins value semantics: the operands are unchanged
// and later builder calls on the result do not leak back.
func TestConcatDoesNotMutate(t *testing.T) {
	a := NewPlan().CrashAt(time.Millisecond, 0)
	b := NewPlan().SuspectAt(2*time.Millisecond, "replica-1")
	out := a.Concat(b)
	out.CrashAt(5*time.Millisecond, 2)
	if len(a.Ops()) != 1 || len(b.Ops()) != 1 {
		t.Errorf("operands mutated: a=%d b=%d ops", len(a.Ops()), len(b.Ops()))
	}
	if len(out.Ops()) != 3 {
		t.Errorf("result ops = %d, want 3", len(out.Ops()))
	}
}

// TestConcatPropagatesTopologyBound pins the flag: concatenating in a
// partition-bearing plan marks the result topology-bound.
func TestConcatPropagatesTopologyBound(t *testing.T) {
	plain := NewPlan().CrashAt(time.Millisecond, 0)
	parted := NewPlan().PartitionAt(time.Millisecond, []simnet.ProcessID{"replica-0"}, []simnet.ProcessID{"replica-1"})
	if plain.Concat(parted).TopologyBound() != true {
		t.Error("topology-bound flag lost in concat")
	}
	if plain.Concat(plain).TopologyBound() {
		t.Error("plain concat spuriously topology-bound")
	}
}

// TestConcatScenarioExecution is the end-to-end property: executing a
// scenario under a concatenated plan equals executing it under the
// hand-built merged plan — same outcome, same history.
func TestConcatScenarioExecution(t *testing.T) {
	crash := NewPlan().CrashAt(2*time.Millisecond, 0)
	storm := NewPlan().DelayStormAt(500*time.Microsecond, 2*time.Millisecond, 8)
	merged := NewPlan().
		CrashAt(2*time.Millisecond, 0).
		DelayStormAt(500*time.Microsecond, 2*time.Millisecond, 8)

	sc, _ := Get("crash-failover")
	sc.Name = "concat-test"
	scA, scB := sc, sc
	scA.Plan = crash.Concat(storm)
	scB.Plan = merged
	a, b := Execute(scA, 11), Execute(scB, 11)
	if len(a.History) != len(b.History) {
		t.Fatalf("histories differ: %d vs %d events", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("history[%d]: %v vs %v", i, a.History[i], b.History[i])
		}
	}
	a.History, b.History = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("outcomes differ:\n%+v\n%+v", a, b)
	}
}
