package core

import (
	"testing"
	"time"

	"xability/internal/vclock"
)

// TestVCPUFIFO pins the virtual CPU's queueing discipline: k contenders
// of one instant are served in arrival order and finish at d, 2d, …, kd;
// a contender that arrives on an idle CPU starts at its own instant.
func TestVCPUFIFO(t *testing.T) {
	const (
		k    = 5
		d    = 10 * time.Microsecond
		late = 100 * time.Microsecond // past k·d: the CPU has been idle since 50µs
	)
	clk := vclock.NewVirtual()
	cpu := newVCPU(clk)
	clk.Enter()
	defer clk.Exit()

	// GoAfter events fire one at a time, each once the previous goroutine
	// has blocked, so arrival order is the loop order and the appends
	// below are serialized by the clock.
	var order []int
	var finish []time.Duration
	contend := func(i int) func() {
		return func() {
			cpu.charge(d)
			order = append(order, i)
			finish = append(finish, clk.Now())
		}
	}
	start := clk.Now()
	for i := 0; i < k; i++ {
		clk.GoAfter(0, contend(i))
	}
	clk.GoAfter(late, contend(k))
	clk.Sleep(2 * late)

	if len(order) != k+1 {
		t.Fatalf("%d of %d contenders finished", len(order), k+1)
	}
	for i := 0; i < k; i++ {
		if want := start + time.Duration(i+1)*d; order[i] != i || finish[i] != want {
			t.Errorf("finish %d: contender %d at %v, want contender %d at %v", i, order[i], finish[i], i, want)
		}
	}
	if want := start + late + d; order[k] != k || finish[k] != want {
		t.Errorf("late arrival: contender %d finished at %v, want contender %d at %v (an idle CPU serves from the arrival instant)", order[k], finish[k], k, want)
	}
}

// TestVCPUChargeAllocFree: a charge is one pooled clock event, contended
// or not — the virtual CPU sits on every proposal and every execution.
func TestVCPUChargeAllocFree(t *testing.T) {
	clk := vclock.NewVirtual()
	cpu := newVCPU(clk)
	clk.Enter()
	defer clk.Exit()
	cpu.charge(time.Microsecond) // warm the clock's event and waiter pools
	if avg := testing.AllocsPerRun(200, func() { cpu.charge(time.Microsecond) }); avg != 0 {
		t.Errorf("vcpu.charge allocates %.2f objects per call, want 0", avg)
	}
}
