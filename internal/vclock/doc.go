// Package vclock provides the simulation's notion of time: one virtual
// discrete-event clock, Virtual. There is no wall-clock implementation —
// the same (scenario, seed) must yield the same bytes, and no run on real
// durations can promise that.
//
// # Virtual vs real time
//
// The system model of the paper (§5.2) is an asynchronous network: message
// delays are unbounded but finite, and nothing in the protocol may depend
// on actual durations. Simulating such a system with real sleeps makes a
// run's speed proportional to the delays it simulates; simulating it with a
// virtual clock makes a run's speed proportional to the work it performs.
// Under the virtual clock a scenario that "waits" 2 ms for a crash to land
// or 50 µs for a message to arrive performs a heap operation instead of a
// sleep, so experiment sweeps run as fast as the hardware allows.
//
// The virtual clock is a discrete-event scheduler: pending wake-ups (sleep
// deadlines, message deliveries, poll timeouts) form a priority queue keyed
// by virtual deadline, tie-broken by scheduling sequence number. Goroutines
// participating in the simulation are attached to the clock (Virtual.Go,
// Virtual.Enter); whenever every attached goroutine is blocked in a clock
// primitive, the clock pops the earliest event, advances virtual time to
// its deadline, and wakes exactly one goroutine — or, for a Runner (a
// message delivery), runs it on the spot, on the goroutine whose clock call
// found the schedule quiescent, and pops the next. Execution of events is
// thereby serialized; see Runner for what a callback on the pump may do.
//
// # How seeds map to schedules
//
// Message delays are drawn from simnet's seeded generator in send order,
// and the event queue's (deadline, sequence) order is a pure function of
// those draws and of the order in which timers are created. Because the
// clock runs one event at a time, the interleaving of protocol steps — and
// with it the delivery order, the observed event history, and the message
// counters — reproduces exactly for equal seeds. Periodic activities
// (failure-detector heartbeats, the server cleaner) stagger their first
// deadline by a hash of their process ID so that symmetric loops do not
// race on equal deadlines.
package vclock
