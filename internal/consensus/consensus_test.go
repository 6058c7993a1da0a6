package consensus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"xability/internal/fd"
	"xability/internal/simnet"
	"xability/internal/vclock"
)

func TestLocalFirstProposalWins(t *testing.T) {
	var o Local
	if _, ok := o.Read(); ok {
		t.Error("fresh object has a decision")
	}
	if got := o.Propose("a"); got != "a" {
		t.Errorf("first propose = %v", got)
	}
	if got := o.Propose("b"); got != "a" {
		t.Errorf("second propose = %v, want a", got)
	}
	v, ok := o.Read()
	if !ok || v != "a" {
		t.Errorf("Read = (%v, %v)", v, ok)
	}
}

func TestLocalConcurrentAgreement(t *testing.T) {
	var o Local
	const n = 32
	results := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = o.Propose(i)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("agreement violated: %v vs %v", results[i], results[0])
		}
	}
	// Validity: the decision is one of the proposals.
	if d := results[0].(int); d < 0 || d >= n {
		t.Errorf("decided value %v was never proposed", d)
	}
}

func TestLocalProviderKeying(t *testing.T) {
	p := NewLocalProvider()
	a := p.Object(At("k1"))
	b := p.Object(At("k1"))
	c := p.Object(At("k2"))
	a.Propose("x")
	if v, ok := b.Read(); !ok || v != "x" {
		t.Error("same key must return the same instance")
	}
	if _, ok := c.Read(); ok {
		t.Error("different key leaked a decision")
	}
	if len(p.Keys()) != 2 {
		t.Errorf("Keys = %v", p.Keys())
	}
}

// ctHarness assembles n CT nodes over a simulated network.
type ctHarness struct {
	net   *simnet.Network
	nodes []*Node
	dets  []*fd.Scripted
	ids   []simnet.ProcessID
}

func newCTHarness(t *testing.T, n int, seed int64) *ctHarness {
	t.Helper()
	h := &ctHarness{net: simnet.New(simnet.Config{Seed: seed, MaxDelay: 200 * time.Microsecond})}
	for i := 0; i < n; i++ {
		h.ids = append(h.ids, simnet.ProcessID(fmt.Sprintf("n%d", i)))
	}
	for i := 0; i < n; i++ {
		ep := h.net.Register(ConsEndpoint(h.ids[i]))
		det := fd.NewScripted(h.net)
		h.dets = append(h.dets, det)
		node := NewNode(h.ids[i], ep, h.ids, det)
		node.Start()
		h.nodes = append(h.nodes, node)
	}
	t.Cleanup(func() {
		for _, nd := range h.nodes {
			nd.Stop()
		}
		h.net.Close()
	})
	return h
}

// proposal is a Propose running on a clock goroutine of its own, so
// several can contend while the test goroutine waits on the clock.
type proposal struct {
	mu       sync.Mutex
	returned *vclock.Cond
	v        any
	done     bool
}

// propose starts node i's Propose at the current instant; nothing runs
// until the test goroutine next waits on the clock.
func (h *ctHarness) propose(i int, key Key, v any) *proposal {
	clk := h.net.Clock()
	p := &proposal{}
	p.returned = clk.NewCond(&p.mu)
	clk.Go(func() {
		d := h.nodes[i].Propose(key, v)
		p.mu.Lock()
		p.v, p.done = d, true
		p.mu.Unlock()
		p.returned.Broadcast()
	})
	return p
}

// decided reports the decision if the Propose has returned.
func (p *proposal) decided() (any, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.v, p.done
}

// wait blocks on the clock until the Propose returns.
func (p *proposal) wait() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.done {
		p.returned.Wait()
	}
	return p.v
}

func TestCTSingleProposer(t *testing.T) {
	h := newCTHarness(t, 3, 1)
	got := h.nodes[0].Propose(At("k"), "v0")
	if got != "v0" {
		t.Errorf("decision = %v, want v0", got)
	}
	// Other nodes learn the decision from the messages still in flight.
	h.net.Quiesce()
	if v, ok := h.nodes[2].Read(At("k")); !ok || v != "v0" {
		t.Fatalf("node 2 state = (%v, %v), want v0", v, ok)
	}
}

func TestCTConcurrentProposersAgree(t *testing.T) {
	h := newCTHarness(t, 3, 2)
	ps := make([]*proposal, 3)
	for i := range h.nodes {
		ps[i] = h.propose(i, At("k"), fmt.Sprintf("v%d", i))
	}
	results := make([]any, 3)
	for i, p := range ps {
		results[i] = p.wait()
	}
	for i := 1; i < 3; i++ {
		if results[i] != results[0] {
			t.Fatalf("agreement violated: %v", results)
		}
	}
	valid := false
	for i := range h.nodes {
		if results[0] == fmt.Sprintf("v%d", i) {
			valid = true
		}
	}
	if !valid {
		t.Errorf("decided value %v was never proposed", results[0])
	}
}

func TestCTIndependentInstances(t *testing.T) {
	h := newCTHarness(t, 3, 3)
	ps := make([]*proposal, 4)
	for k := range ps {
		ps[k] = h.propose(k%3, At(fmt.Sprintf("key-%d", k)), fmt.Sprintf("val-%d", k))
	}
	for k, p := range ps {
		if d := p.wait(); d != fmt.Sprintf("val-%d", k) {
			t.Errorf("instance %d decided %v (single proposer must win its own instance)", k, d)
		}
	}
}

func TestCTToleratesMinorityCrash(t *testing.T) {
	h := newCTHarness(t, 3, 4)
	h.net.Crash(ConsEndpoint(h.ids[2]))
	h.nodes[2].Stop()

	if v := h.nodes[0].Propose(At("k"), "v"); v != "v" {
		t.Errorf("decision = %v", v)
	}
}

func TestCTCrashedCoordinatorRotation(t *testing.T) {
	h := newCTHarness(t, 3, 5)
	// Round 1's coordinator is ids[1%3] = n1; crash it so the instance
	// must rotate to another coordinator. The harness only registers the
	// consensus endpoints, so completeness is injected explicitly (the
	// full-protocol Crash in internal/core crashes the base process too,
	// which the scripted detector picks up automatically).
	h.net.Crash(ConsEndpoint(h.ids[1]))
	h.nodes[1].Stop()
	h.dets[0].SetSuspected(h.ids[1], true)
	h.dets[2].SetSuspected(h.ids[1], true)

	if v := h.nodes[0].Propose(At("k"), "v"); v != "v" {
		t.Errorf("decision = %v", v)
	}
}

func TestCTFalseSuspicionStillAgrees(t *testing.T) {
	h := newCTHarness(t, 3, 6)
	// n2 permanently (falsely) suspects everyone: it nacks every proposal
	// it is asked about, but a majority of accurate nodes still decides.
	h.dets[2].SetSuspected(h.ids[0], true)
	h.dets[2].SetSuspected(h.ids[1], true)

	p0 := h.propose(0, At("k"), "v0")
	p1 := h.propose(1, At("k"), "v1")
	results := []any{p0.wait(), p1.wait()}
	if results[0] != results[1] {
		t.Fatalf("agreement violated under false suspicion: %v", results)
	}
}

// TestCTPartitionStallsAndHealResumes pins the loss-recovery machinery: a
// proposer isolated by a partition decides nothing while the cut is in
// force (its detector does not suspect the live, merely unreachable
// coordinator), and the stalled instance resumes and decides once the
// network heals — driven by the participant's periodic estimate
// retransmission.
func TestCTPartitionStallsAndHealResumes(t *testing.T) {
	h := newCTHarness(t, 3, 7)
	clk := h.net.Clock()
	h.net.Partition([]simnet.ProcessID{"n0"}, []simnet.ProcessID{"n1", "n2"})
	p := h.propose(0, At("k"), "v0")

	// 50ms of simulated time: round 1's coordinator (n1) is on the other
	// side of the cut and never suspected, so the instance must stall.
	clk.Sleep(50 * time.Millisecond)
	if v, ok := p.decided(); ok {
		t.Fatalf("decision %v during partition", v)
	}
	for i := 1; i < 3; i++ {
		if _, ok := h.nodes[i].Read(At("k")); ok {
			t.Fatalf("node %d decided during partition", i)
		}
	}

	h.net.Heal()
	if v := p.wait(); v != "v0" {
		t.Fatalf("post-heal decision = %v, want v0", v)
	}
	h.net.Quiesce()
	for i := 0; i < 3; i++ {
		if v, ok := h.nodes[i].Read(At("k")); !ok || v != "v0" {
			t.Errorf("node %d post-heal state = (%v, %v), want v0", i, v, ok)
		}
	}
}

// TestCTPartitionedMinorityCatchesUpAfterHeal pins the decided-reply path:
// the majority side decides while a node is cut off; after Heal, the
// latecomer's first contact with any decided node returns the decision.
func TestCTPartitionedMinorityCatchesUpAfterHeal(t *testing.T) {
	h := newCTHarness(t, 3, 8)
	h.net.Partition([]simnet.ProcessID{"n0", "n1"}, []simnet.ProcessID{"n2"})
	if v := h.nodes[0].Propose(At("k"), "v0"); v != "v0" {
		t.Fatalf("majority-side decision = %v, want v0", v)
	}
	h.net.Quiesce()
	if _, ok := h.nodes[2].Read(At("k")); ok {
		t.Fatal("isolated node learned the decision through the partition")
	}
	h.net.Heal()
	// The latecomer proposes its own value; agreement forces the earlier
	// decision.
	if v := h.nodes[2].Propose(At("k"), "v2"); v != "v0" {
		t.Fatalf("latecomer decision = %v, want v0", v)
	}
}

func TestCTObjectAdapter(t *testing.T) {
	h := newCTHarness(t, 3, 7)
	obj := h.nodes[0].Object(At("adapter-key"))
	if _, ok := obj.Read(); ok {
		t.Error("fresh instance decided")
	}
	if got := obj.Propose("x"); got != "x" {
		t.Errorf("Propose = %v", got)
	}
	if v, ok := obj.Read(); !ok || v != "x" {
		t.Errorf("Read = (%v, %v)", v, ok)
	}
}

func TestCTProposeAfterDecision(t *testing.T) {
	h := newCTHarness(t, 3, 8)
	first := h.nodes[0].Propose(At("k"), "v0")
	second := h.nodes[1].Propose(At("k"), "v1")
	if first != second {
		t.Errorf("late proposal got %v, first got %v", second, first)
	}
}

// TestCatchUpAfterPartitionDesync pins the round catch-up rule against the
// wedge the seeded random fault generator found: n2 is crashed, and n1 is
// cut off (and suspected) while n0 runs the instance alone — n0 burns
// through round 1 (coordinator n1, suspected), round 2 (coordinator n2,
// crashed) and stalls as round 3's coordinator, its earlier round-1
// estimate black-holed by the cut. After the heal, n1 discovers the
// instance from n0's round-3 re-announcements but starts at round 1 — as
// round 1's own coordinator, waiting for a round-1 estimate quorum that
// can never assemble, since n0 only retransmits round-3 traffic. Without
// the catch-up rule both nodes wait on each other forever; with it, n1
// abandons the stale round and joins round 3, and the instance decides.
func TestCatchUpAfterPartitionDesync(t *testing.T) {
	h := newCTHarness(t, 3, 23)
	clk := h.net.Clock()

	// Crash n2 outright.
	h.net.Crash(h.ids[2])
	h.net.Crash(ConsEndpoint(h.ids[2]))
	h.nodes[2].Stop()

	// Cut n1 off and make n0 suspect it, so n0 leaves round 1 behind while
	// round 1's traffic is black-holed.
	h.net.Partition([]simnet.ProcessID{"n1"}, []simnet.ProcessID{"n0", "n2"})
	h.dets[0].SetSuspected(h.ids[1], true)

	p := h.propose(0, At("k"), "v0")

	// Let n0 rotate through the dead rounds and stall as round 3's
	// coordinator behind the cut.
	clk.Sleep(20 * time.Millisecond)
	if v, ok := p.decided(); ok {
		t.Fatalf("decision %v during partition (quorum was unreachable)", v)
	}

	h.net.Heal()
	h.dets[0].SetSuspected(h.ids[1], false)
	// A wedged instance leaves only the retransmission timers running, so
	// bound the wait in virtual time rather than hang.
	clk.Sleep(time.Second)
	if v, ok := p.decided(); !ok || v != "v0" {
		t.Fatalf("post-heal decision = (%v, %v), want v0: round catch-up did not fire", v, ok)
	}
	h.net.Quiesce()
}
