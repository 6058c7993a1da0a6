package core

import (
	"time"

	"xability/internal/vclock"
)

// CostModel charges virtual-clock time for the protocol's two expensive
// primitives, per server. The simulated network is an infinite-server
// queue — any number of deliveries and executions overlap in virtual time —
// so without a cost model a replica has unbounded capacity and open-loop
// throughput curves never saturate. Charging a fixed virtual cost per
// consensus proposal and per action execution on a serialized per-replica
// CPU gives each replica a finite service rate, which is exactly what T11's
// saturation experiments measure: batching amortizes the Consensus charge
// over the batch, pipelining overlaps agreement with execution.
//
// The zero value disables charging entirely: no sleeps, no serialization,
// and every existing scenario runs bit-identically to the uncharged build.
type CostModel struct {
	// Consensus is charged once per consensus proposal a server issues
	// (ownership, result, and outcome agreement alike, in both the
	// per-request and the batched plane).
	Consensus time.Duration
	// Exec is charged once per action execution attempt, cancel/commit
	// derived actions included.
	Exec time.Duration
}

// enabled reports whether any charge is non-zero.
func (cm CostModel) enabled() bool { return cm.Consensus > 0 || cm.Exec > 0 }

// vcpu serializes charged work on one replica. A FIFO server with
// deterministic service times is fully described by the instant it next
// falls idle, so that instant is all the state there is: a contender
// starts at max(now, freeAt), moves freeAt past its own work, and sleeps
// once until its finish. Arrival order under the deterministic scheduler
// is deterministic, so the service order — and therefore every run
// metric — is too; a queued contender costs one clock event, whatever the
// queue's length.
type vcpu struct {
	clk    *vclock.Virtual
	freeAt time.Duration // virtual instant the CPU next falls idle
}

func newVCPU(clk *vclock.Virtual) *vcpu { return &vcpu{clk: clk} }

// charge occupies the CPU for d of virtual time, FIFO among contenders.
// Virtual time moves only inside a wait, so it cannot advance between
// reading now and sleeping.
func (c *vcpu) charge(d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	now := c.clk.Now()
	c.freeAt = max(c.freeAt, now) + d
	c.clk.Sleep(c.freeAt - now)
}
