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
// by virtual deadline, tie-broken by scheduling sequence number. The
// schedule advances only while some caller waits on it: whenever nothing
// on the clock is running — no clock goroutine (Virtual.Go) outside a
// clock primitive, no Runner, no caller just woken from its wait — and
// someone is blocked in a Sleep or a Cond wait, the clock pops the earliest
// event, advances virtual time to its deadline, and wakes exactly one
// goroutine — or, for a Runner (a message delivery, a Timer's tick, a
// Runner woken from a Cond wait by WaitRunner), runs it on the spot and
// pops the next. A spawn is an event too (Go is GoAfter(0, fn)), so a new
// goroutine starts only when its event is popped, never beside its
// spawner, and scheduling never runs anything. Execution of events is
// thereby serialized; see Runner for what a callback on the pump may do.
//
// A caller outside the clock attaches for one blocking call at a time: it
// is the running unit while its wait is armed and again once woken, and
// on return it lets go without pumping, so between its calls the world is
// frozen at one virtual instant. A driver that builds its world, drives
// it through waits and winds it down with RunOut therefore keeps exactly
// one goroutine runnable at a time throughout, and a service left idle
// between two calls does not move.
//
// # How seeds map to schedules
//
// Message delays are drawn from simnet's seeded generator in send order,
// and the event queue's (deadline, sequence) order is a pure function of
// those draws and of the order in which timers are created. Because the
// clock runs one event at a time, the interleaving of protocol steps — and
// with it the delivery order, the observed event history, and the message
// counters — reproduces exactly for equal seeds. Symmetric periodic
// activities (failure-detector heartbeats, the server cleaner) share
// deadlines; the sequence number orders them, in the order they were armed.
package vclock
