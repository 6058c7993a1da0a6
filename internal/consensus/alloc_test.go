package consensus

import (
	"fmt"
	"testing"
)

// TestCTDecisionAllocBudget pins what one CT decision costs once the nodes
// are warm: three nodes, one proposer, keys and values built beforehand.
// An instance is one allocation per node, its scratch inside it, and a
// message is a slot of its sender's slab, eight to a chunk. Measured at 6
// objects, the same under the race detector (41 while each message was
// boxed on send and each instance allocated its cond, waiter list and
// scratch apart); the budget is 5 % above.
func TestCTDecisionAllocBudget(t *testing.T) {
	h := newCTHarness(t, 3, 1)
	const runs = 200
	keys := make([]Key, 2*runs)
	vals := make([]any, len(keys))
	for i := range keys {
		keys[i], vals[i] = At(fmt.Sprintf("k%d", i)), i
	}
	i := 0
	decide := func() {
		if got := h.nodes[0].Propose(keys[i], vals[i]); got != vals[i] {
			t.Fatalf("decision = %v, want %v", got, vals[i])
		}
		i++
	}
	for i < runs-1 {
		decide() // warm the clock's pools, the network and the node maps
	}
	if avg := testing.AllocsPerRun(runs, decide); avg > 6.3 {
		t.Fatalf("a warm CT decision allocates %.2f objects, budget 6.3", avg)
	}
}

// TestCTLateMessageAllocFree pins the decided-reply path: a late message to
// a decided instance is answered with the decide message cached on the
// instance, a slot sent once and never rebuilt, so the answer allocates
// nothing. Each run answers a slab chunk's worth of messages: AllocsPerRun
// truncates to whole objects per run, and a slot taken per answer costs
// one chunk per chunkLen answers.
func TestCTLateMessageAllocFree(t *testing.T) {
	h := newCTHarness(t, 3, 2)
	key := At("k")
	if got := h.nodes[0].Propose(key, "v"); got != "v" {
		t.Fatalf("decision = %v", got)
	}
	h.net.Quiesce()
	late := &ctMsg{Key: key, Round: 1, Kind: ctEstimate}
	from, to := h.nodes[1], ConsEndpoint(h.ids[0])
	answer := func() {
		for range chunkLen {
			from.ep.Send(to, "cons", late)
		}
		h.net.Quiesce()
	}
	for i := 0; i < 100; i++ {
		answer()
	}
	if avg := testing.AllocsPerRun(500, answer); avg > 0 {
		t.Fatalf("answering a late message allocates %.2f objects, budget 0", avg)
	}
}
