package vclock

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// LeakReport is Stop's audit result: how many clock goroutines were still
// running, and where they were created.
type LeakReport struct {
	// Leaked counts goroutines the clock started (Go, GoAfter) whose
	// function has not returned.
	Leaked int
	// Sites are the distinct origins, sorted for deterministic assertions,
	// with a ×N multiplicity suffix: the function each goroutine runs and
	// where that is defined ("file:line (func)").
	Sites []string
}

func (r LeakReport) String() string {
	if r.Leaked == 0 {
		return "vclock: no leaked goroutines"
	}
	return fmt.Sprintf("vclock: %d leaked goroutine(s) still running; created at %s",
		r.Leaked, strings.Join(r.Sites, "; "))
}

// Runner is a pre-allocated schedulable callback (AfterRunner). Hot paths
// that schedule one event per message (the network's delivery plane) pool
// their Runners so the per-event heap footprint is zero.
//
// Run executes on the pump: on the goroutine whose wait, or whose clock
// goroutine's end, set the schedule going, with no goroutine of its own and
// counted as the one running unit until it returns. So Run must not block in
// a clock primitive (Sleep, a Cond wait, Drain) — nothing else could run to
// wake it — and may take only locks that nobody holds across a call into
// the clock, because the goroutine it borrowed may be inside such a call.
// Scheduling from Run (Broadcast, GoAfter, AfterRunner, Send) is fine: the
// events fire after Run returns. So is waiting the Runner's way: a Runner
// that must wait for a condition arms itself on the Cond (WaitRunner) and
// returns, and the wake runs it again.
type Runner interface{ Run() }

// vevent is one pending entry in the virtual schedule: a waiter to wake
// (w), a callback to spawn (fn), a pooled Runner to run inline (r), or a
// Timer's expiry (t). Events are pooled on the owning clock (evfree):
// pushLocked recycles them and pumpLocked returns them the moment they are
// popped, so steady-state scheduling allocates nothing.
type vevent struct {
	at  time.Duration
	seq uint64
	w   *waiter
	t   *Timer
	gen uint32 // w's or t's generation at arming time (see waiter.gen, Timer.gen)
	bw  bool   // broadcast wake: w was fired by Broadcast, not a timer
	fn  func()
	r   Runner
	pc  uintptr // fn's entry, for Stop's leak audit
}

// waiter is one blocked goroutine (or timed cond wait). Waiters are pooled
// on the clock and their wake channel (capacity 1) is reused across arms:
// a waiter fires at most once per arming (fired guards the broadcast/timer
// double wake), so the send can never block. gen increments on every
// release; a timer event left in the heap by a broadcast-woken waiter
// carries the old generation and is recognized as stale when popped.
type waiter struct {
	ch       chan struct{}
	gen      uint32
	fired    bool
	timedOut bool
	cond     *Cond  // set for cond waiters, for list cleanup on timeout
	r        Runner // set for a Runner waiting on a Cond (WaitRunner): the wake runs it
}

// Virtual is the simulation's clock: a discrete-event scheduler. Time is a
// counter that jumps to the next scheduled deadline whenever nothing on the
// clock is running. Sleeping costs no wall time; a run is limited by CPU,
// not by the durations it simulates. Create with NewVirtual; a sweep
// worker builds one and rewinds it with Reset for each later seed, the way
// it recycles its networks.
//
// The schedule advances only while some caller waits on it. The clock
// counts running units: a goroutine it started (Go, GoAfter) that is not
// blocked in a clock primitive, a Runner on the pump, and a caller that a
// wait of its own has just woken. When the count reaches zero inside a
// wait, the clock fires exactly one pending event (ordered by deadline,
// then by scheduling sequence), wakes its owner, and waits for the count to
// reach zero again. Event execution is therefore serialized, which is what
// makes runs with equal seeds reproduce equal schedules.
//
// Attachment is per call, not per goroutine. A blocking primitive (Sleep,
// a Cond wait) called while nothing runs counts its caller as the running
// unit for that one call; on return the caller gives the unit back without
// pumping, so the world stays frozen at that virtual instant until the
// next wait. Called from a running unit, it changes nothing. Scheduling
// (GoAfter, AfterRunner, Timer.Reset, Broadcast) never runs anything: from
// a frozen world it only adds to the schedule. So a caller outside the
// clock — a test, the facade, a benchmark — may build a world, schedule
// into it and wait on it without holding anything, one call at a time;
// two such callers must not wait on one clock at once, since the first to
// return freezes the world under the other.
type Virtual struct {
	mu     sync.Mutex
	now    time.Duration
	seq    uint64
	spawns uint64
	wakes  uint64
	busy   int // running units (see Virtual)
	pq     []*vevent

	// waiting counts the waiters handed out and not yet released: callers
	// in a Sleep or a cond wait, and Runners armed on a Cond.
	waiting int

	// running counts the clock goroutines started and not yet returned,
	// by spawn site, for Stop's audit and Quiesced; a site leaves the map
	// when its count returns to zero.
	running map[uintptr]int

	// Free lists. All are guarded by mu; entries are fully reset before
	// reuse.
	evfree []*vevent
	wfree  []*waiter
}

// NewVirtual returns a virtual clock at time zero.
func NewVirtual() *Virtual {
	return &Virtual{running: make(map[uintptr]int)}
}

// Reset rewinds a Quiesced clock to time zero for the next run, the mirror
// of simnet.Network.Reset: Now, Events, Spawns and Wakes return to zero,
// and the event pool, the waiter pool (each waiter with its wake channel)
// and the heap's backing array are kept. Nothing is pending, so a schedule
// run after Reset fires in the (time, seq) order it fires on a fresh
// clock, and Conds built before it stay usable. Reset refuses, and reports
// false without changing anything, unless the clock is Quiesced.
func (v *Virtual) Reset() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.quiescedLocked() {
		return false
	}
	v.now, v.seq, v.spawns, v.wakes = 0, 0, 0, 0
	return true
}

// Now returns the time elapsed since the clock started.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Events reports how many events were ever scheduled on the clock (timers,
// spawns and broadcast wakes alike). It is a count of simulator work, not
// of time: equal seeds give equal counts on any host, so a test can bound
// the events a request costs where a wall-clock bound would flake.
func (v *Virtual) Events() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.seq
}

// Spawns reports how many goroutines the clock ever started: Go and GoAfter
// callbacks, counted when their events fire. Like Events it is a
// host-independent count of simulator work; Runners and Timers are not in
// it — they run on the pump.
func (v *Virtual) Spawns() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.spawns
}

// Wakes reports how many times the pump woke a goroutine blocked in a clock
// primitive (a Sleep, a cond wait) — each one a hand-off between host
// goroutines. Like Events and Spawns it is a host-independent count; an
// event that runs a Runner or a Timer wakes nobody.
func (v *Virtual) Wakes() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.wakes
}

// --- event heap (hand-rolled: container/heap's interface indirection and
// boxing showed up in sweep profiles). Ordered by (at, seq). ---

func (v *Virtual) heapPush(ev *vevent) {
	v.pq = append(v.pq, ev)
	pq := v.pq
	i := len(pq) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(pq[i], pq[p]) {
			break
		}
		pq[i], pq[p] = pq[p], pq[i]
		i = p
	}
}

func (v *Virtual) heapPop() *vevent {
	pq := v.pq
	n := len(pq) - 1
	top := pq[0]
	pq[0] = pq[n]
	pq[n] = nil
	v.pq = pq[:n]
	pq = v.pq
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		m := l
		if r < n && eventLess(pq[r], pq[l]) {
			m = r
		}
		if !eventLess(pq[m], pq[i]) {
			break
		}
		pq[i], pq[m] = pq[m], pq[i]
		i = m
	}
	return top
}

func eventLess(a, b *vevent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (v *Virtual) pushLocked(at time.Duration, w *waiter, fn func(), r Runner, pc uintptr) *vevent {
	v.seq++
	var ev *vevent
	if n := len(v.evfree); n > 0 {
		ev = v.evfree[n-1]
		v.evfree[n-1] = nil
		v.evfree = v.evfree[:n-1]
	} else {
		ev = new(vevent)
	}
	ev.at, ev.seq, ev.w, ev.fn, ev.r, ev.pc = at, v.seq, w, fn, r, pc
	ev.bw = false
	if w != nil {
		ev.gen = w.gen
	}
	v.heapPush(ev)
	return ev
}

// pushBroadcastLocked schedules a broadcast wake for w at the current
// instant. Broadcast pushes one per waiter, in arming order, instead of
// making every waiter runnable at once: the pump then delivers the wakes
// one at a time, so sibling goroutines woken by one broadcast run in a
// deterministic order rather than racing under the OS scheduler (whose
// interleaving varies with worker count). Events come from the same pool
// as timers, so a broadcast allocates nothing in steady state.
func (v *Virtual) pushBroadcastLocked(w *waiter) {
	v.pushLocked(v.now, w, nil, nil, 0).bw = true // bw does not enter the heap order
}

// newWaiterLocked hands out a pooled waiter, armed (gen fixed) and clean.
func (v *Virtual) newWaiterLocked() *waiter {
	v.waiting++
	if n := len(v.wfree); n > 0 {
		w := v.wfree[n-1]
		v.wfree[n-1] = nil
		v.wfree = v.wfree[:n-1]
		return w
	}
	return &waiter{ch: make(chan struct{}, 1)}
}

// releaseWaiterLocked returns a consumed waiter to the pool. Bumping gen
// invalidates any timer event still in the heap that references it.
func (v *Virtual) releaseWaiterLocked(w *waiter) {
	v.waiting--
	w.gen++
	w.fired = false
	w.timedOut = false
	w.cond = nil
	w.r = nil
	v.wfree = append(v.wfree, w)
}

// holdLocked starts a blocking primitive's call. A caller that finds
// nothing running is the running unit for this call, and holdLocked
// reports true; called from a running unit it changes nothing. Either way
// the caller gives up one unit (yieldLocked) once its waiter is armed, and
// on the wake the pump hands it one back, which an idle caller returns
// without pumping (v.busy--): the world stays frozen until the next wait.
func (v *Virtual) holdLocked() bool {
	if v.busy > 0 {
		return false
	}
	v.busy++
	return true
}

// yieldLocked gives up the caller's running unit; if that leaves nothing
// running it advances time.
func (v *Virtual) yieldLocked() {
	v.busy--
	v.pumpLocked()
}

// pumpLocked fires the next pending event: it advances now to the event's
// deadline, marks its owner runnable, and wakes it. Exactly one runnable
// goroutine results, so event execution is serialized and deterministic.
// A Runner has no goroutine to wake: the pump runs it here, as the one
// runnable unit and with v.mu dropped, then keeps pumping — a Runner that
// waited on a Cond too, once its waiter is released. A stale event —
// a waiter's timer after its wake, a Timer expiry after a later Reset or a
// Stop — is dropped before time moves: it neither runs nor advances now.
// Popped events return to the pool immediately — nothing references a
// vevent once it leaves the heap — keeping the critical section short and
// the heap churn-free.
func (v *Virtual) pumpLocked() {
	for v.busy == 0 && len(v.pq) > 0 {
		ev := v.heapPop()
		stale := ev.stale()
		at, w, t, bw, fn, r, pc := ev.at, ev.w, ev.t, ev.bw, ev.fn, ev.r, ev.pc
		v.recycleLocked(ev)
		if stale {
			continue
		}
		if t != nil {
			r = t.r
		}
		if at > v.now {
			v.now = at
		}
		v.busy++
		if fn != nil {
			v.spawns++
			v.running[pc]++
			go v.run(fn, pc) //xvet:ok baregoroutine the clock's own spawn: its running unit and its site were counted above
			return
		}
		if w != nil {
			if !bw {
				// Timer expiry: mark and detach from the cond's list. Broadcast
				// wakes (bw) did both at broadcast time; timedOut stays false.
				w.fired = true
				w.timedOut = true
				if w.cond != nil {
					w.cond.removeLocked(w)
				}
			}
			if w.r == nil {
				v.wakes++
				w.ch <- struct{}{}
				return
			}
			// Released before it runs: a timeout still in the heap turns
			// stale, and Run may arm the Runner on the Cond again.
			r = w.r
			v.releaseWaiterLocked(w)
		}
		v.mu.Unlock()
		r.Run()
		v.mu.Lock()
		v.busy--
	}
}

// stale reports whether a popped event must be dropped without running or
// moving the clock: a waiter's event after the waiter was recycled, a
// waiter's timer after a broadcast woke it, a Timer expiry superseded by a
// later Reset or a Stop.
func (ev *vevent) stale() bool {
	if w := ev.w; w != nil {
		return w.gen != ev.gen || (!ev.bw && w.fired)
	}
	return ev.t != nil && ev.t.gen != ev.gen
}

// recycleLocked returns a popped event to the pool.
func (v *Virtual) recycleLocked(ev *vevent) {
	ev.w, ev.t, ev.fn, ev.r, ev.pc, ev.bw = nil, nil, nil, nil, 0, false
	v.evfree = append(v.evfree, ev)
}

// run runs fn on the calling (fresh) goroutine, which the pump that fired
// its spawn event counted as a running unit under site, fn's entry. Its end
// gives the unit up, pumping inline on this goroutine.
func (v *Virtual) run(fn func(), site uintptr) {
	defer func() {
		v.mu.Lock()
		if v.running[site]--; v.running[site] == 0 {
			delete(v.running, site)
		}
		v.yieldLocked()
		v.mu.Unlock()
	}()
	fn()
}

// Enter and Exit do nothing: attachment is per call (see Virtual), so no
// caller needs to hold the clock. They remain only for the benchmark
// module's probes, which still call them.
func (v *Virtual) Enter() {}

// Exit does nothing; see Enter.
func (v *Virtual) Exit() {}

// Sleep blocks for d. From a caller outside the clock it runs the schedule
// up to now+d and returns with the world frozen there (see Virtual).
func (v *Virtual) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	held := v.holdLocked()
	w := v.newWaiterLocked()
	v.pushLocked(v.now+d, w, nil, nil, 0)
	v.yieldLocked()
	v.mu.Unlock()
	<-w.ch //xvet:ok detachedwait the clock's own sleep: the running unit was given up above and the wake is a scheduled event
	v.mu.Lock()
	v.releaseWaiterLocked(w)
	if held {
		v.busy--
	}
	v.mu.Unlock()
}

// Go runs fn on a new goroutine the clock counts as a running unit: it is
// GoAfter(0, fn), an event at the current instant. The spawner keeps
// running, and the goroutine starts when the pump reaches its event — in a
// wait, once nothing else runs — so a spawn never runs beside the goroutine
// that asked for it.
func (v *Virtual) Go(fn func()) { v.GoAfter(0, fn) }

// GoAfter schedules fn to run on a new clock goroutine after d. The event's
// position in the schedule is fixed at call time; like every scheduling
// call it runs nothing.
func (v *Virtual) GoAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	pc := funcPC(fn)
	v.mu.Lock()
	v.pushLocked(v.now+d, nil, fn, nil, pc)
	v.mu.Unlock()
}

// AfterRunner schedules r.Run on the pump after d (see Runner for what Run
// may do there). No closure is allocated, the event object comes from the
// clock's pool and nothing is spawned, so a scheduled Runner is free of
// heap traffic end to end. The Runner must not be reused until Run has been
// entered.
func (v *Virtual) AfterRunner(d time.Duration, r Runner) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	v.pushLocked(v.now+d, nil, nil, r, 0)
	v.mu.Unlock()
}

// Timer is a re-armable schedule for one Runner: Reset(d) schedules r.Run
// on the pump at now+d (see Runner for what Run may do there) and
// supersedes any expiry still pending, Stop supersedes it without a new
// one. A superseded expiry stays in the heap until its turn and is then
// dropped the way a broadcast-woken waiter's timer is — it neither runs nor
// moves the clock — so replacing a goroutine's timed cond wait by a Timer
// (a wait's timeout by Reset(timeout), its Broadcast by Reset(0)) schedules
// the same events at the same (deadline, sequence) positions. A polling
// loop rewritten the same way is a Timer whose Run ends in Reset(period):
// called where the loop's Sleep(period) pushed its wake, the Reset takes
// that wake's position. Like AfterRunner, arming allocates nothing and
// nothing is spawned.
type Timer struct {
	v   *Virtual
	r   Runner
	gen uint32 // bumped by every Reset and Stop; an expiry armed under an older gen is stale
}

// NewTimer returns an unarmed Timer for r on the clock.
func (v *Virtual) NewTimer(r Runner) *Timer {
	t := new(Timer)
	v.InitTimer(t, r)
	return t
}

// InitTimer initialises t in place as an unarmed Timer for r, as NewTimer
// does, for a Timer embedded by value in the struct that owns r. Pending
// expiries hold t's address, so t must not be copied or initialised again
// while one may be left: a recycled owner does it on a Quiesced clock.
func (v *Virtual) InitTimer(t *Timer, r Runner) { *t = Timer{v: v, r: r} }

// Reset schedules r.Run after d, superseding any pending expiry. It may be
// called from inside Run.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := t.v
	v.mu.Lock()
	t.gen++
	ev := v.pushLocked(v.now+d, nil, nil, nil, 0)
	ev.t, ev.gen = t, t.gen
	v.mu.Unlock()
}

// Stop supersedes any pending expiry.
func (t *Timer) Stop() {
	t.v.mu.Lock()
	t.gen++
	t.v.mu.Unlock()
}

// funcPC returns fn's entry: what Go and GoAfter record for Stop's leak
// audit. It reads the func value instead of walking the spawner's stack,
// which on the spawn path cost more than the spawn.
func funcPC(fn func()) uintptr { return reflect.ValueOf(fn).Pointer() }

// Stop audits the clock at teardown: it reports the goroutines the clock
// started whose function has not returned (count plus spawn sites). A
// clean shutdown reports zero — anything else is a leak, the runtime
// counterpart of xvet's baregoroutine rule, surfaced as a loud test failure
// instead of a hang. Stop is purely diagnostic and idempotent.
func (v *Virtual) Stop() LeakReport {
	v.mu.Lock()
	defer v.mu.Unlock()
	leaked := 0
	sites := make([]string, 0, len(v.running))
	for pc, c := range v.running {
		leaked += c
		s := siteLabel(pc)
		if c > 1 {
			s = fmt.Sprintf("%s ×%d", s, c)
		}
		sites = append(sites, s)
	}
	sort.Strings(sites)
	return LeakReport{Leaked: leaked, Sites: sites}
}

// siteLabel renders a creation-site pc as "file:line (func)", keeping the
// last two path elements of the file for readable test output. A method
// value (s.loop) is spawned through a compiler-generated wrapper with no
// source position; it is named by its method instead.
func siteLabel(pc uintptr) string {
	fn := runtime.FuncForPC(pc)
	if fn == nil {
		return "unknown site"
	}
	if name, ok := strings.CutSuffix(fn.Name(), "-fm"); ok {
		return name + " (method value)"
	}
	file, line := fn.FileLine(pc)
	if i := strings.LastIndex(file, "/"); i >= 0 {
		if j := strings.LastIndex(file[:i], "/"); j >= 0 {
			file = file[j+1:]
		}
	}
	return fmt.Sprintf("%s:%d (%s)", file, line, fn.Name())
}

// Drain blocks until no events remain scheduled at the current instant:
// broadcast wakes already pushed have been delivered and their owners have
// run to their next blocking point. Settle-style barriers ("everything that
// was going to happen now has happened") call it after their own condition
// holds. Like Sleep it is safe from any caller.
//
// Each round sleeps zero duration — the timer
// lands behind every event already scheduled at the current instant, so
// by the time the caller wakes, those events have fired and their owners
// have run until they blocked again. Rounds repeat until a scan finds
// nothing left at ≤ now (events those owners pushed at the same instant
// drain in the next round); stale timers left by broadcasts are popped
// and discarded along the way.
func (v *Virtual) Drain() {
	for {
		v.mu.Lock()
		pending := false
		for _, ev := range v.pq {
			if ev.at <= v.now {
				pending = true
				break
			}
		}
		v.mu.Unlock()
		if !pending {
			return
		}
		v.Sleep(0)
	}
}

// RunOut runs the schedule to its end: it sleeps past the latest live
// event, again while that run scheduled more, and returns once nothing live
// is scheduled, with the superseded entries left behind (Timer expiries
// after a Reset or Stop, a broadcast-woken waiter's timer) dropped. A
// stopped world winds down this way on its driver's goroutine, and leaves
// the clock Quiesced once its last clock goroutine has returned. A world
// that never stops scheduling (a periodic timer nobody stopped) never
// returns. Like Sleep it is safe from any caller.
func (v *Virtual) RunOut() {
	for {
		v.mu.Lock()
		last, live := v.now, false
		for _, ev := range v.pq {
			if !ev.stale() {
				live = true
				last = max(last, ev.at)
			}
		}
		if !live {
			for _, ev := range v.pq {
				v.recycleLocked(ev)
			}
			clear(v.pq)
			v.pq = v.pq[:0]
			v.mu.Unlock()
			return
		}
		d := last - v.now
		v.mu.Unlock()
		v.Sleep(d)
	}
}

// Quiesced reports whether the clock has fully wound down: nothing
// running, no clock goroutine that has not returned, no caller mid-wait
// and no pending events — superseded ones included, so a frozen world with
// live events is not quiesced. A deployment that has been stopped and run
// out (RunOut) by its driver is in this state; Reset and Network.Reset
// refuse to recycle a clock or a network whose clock is not. Every Cond
// on a quiesced clock has an empty waiter list.
func (v *Virtual) Quiesced() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.quiescedLocked()
}

func (v *Virtual) quiescedLocked() bool {
	return v.busy == 0 && len(v.pq) == 0 && len(v.running) == 0 && v.waiting == 0
}

// NewCond returns a condition variable integrated with the clock: waiting
// gives up the caller's running unit so virtual time can advance, and
// timed waits use clock time. l is the user lock a wait releases and
// re-acquires, as with sync.Cond; nil means no user lock, which is what a
// world's objects pass, since only the clock's running unit touches them
// (see the package doc).
func (v *Virtual) NewCond(l sync.Locker) *Cond {
	c := new(Cond)
	v.InitCond(c, l)
	return c
}

// InitCond initialises c in place, as NewCond does, for a Cond embedded by
// value in the struct that owns it, so the two are one allocation. c must
// not be copied afterwards: its waiter list starts in its own inline array.
func (v *Virtual) InitCond(c *Cond, l sync.Locker) {
	*c = Cond{v: v, l: l}
	c.waiters = c.inline[:0]
}

// Cond is a sync.Cond-shaped condition variable whose waits the clock
// understands; like Sleep they are safe from any caller (see Virtual). With
// a nil user lock a wait only gives up the running unit and takes it back;
// with one, it is released after the waiter is registered and before the
// unit is given up, and re-acquired after the wake, so a Runner on the pump
// may take it. The waiter list is guarded by the clock mutex and starts in
// inline, so a Cond's first two waiters allocate no list.
type Cond struct {
	v       *Virtual
	l       sync.Locker
	waiters []*waiter
	inline  [2]*waiter
}

// Wait blocks until Broadcast, releasing and re-acquiring the user lock
// around the block when there is one.
func (c *Cond) Wait() { c.wait(-1) }

// WaitTimeout is Wait with a deadline d from now. It reports whether the
// caller was woken by Broadcast (false: the timeout elapsed).
func (c *Cond) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	return c.wait(d)
}

func (c *Cond) wait(d time.Duration) bool {
	v := c.v
	v.mu.Lock()
	held := v.holdLocked()
	w := v.newWaiterLocked()
	w.cond = c
	c.waiters = append(c.waiters, w)
	if d >= 0 {
		v.pushLocked(v.now+d, w, nil, nil, 0)
	}
	if c.l != nil {
		// Registered first (no broadcast can be missed), then l released,
		// and only then the running unit given up: that last step may
		// pump, and a Runner on the pump may need l.
		v.mu.Unlock()
		c.l.Unlock()
		v.mu.Lock()
	}
	v.yieldLocked()
	v.mu.Unlock()
	<-w.ch //xvet:ok detachedwait the clock's own cond wait: the running unit was given up above; the wake is a broadcast or scheduled timeout
	// The wake (fired=true) happens before the channel send, so reading
	// timedOut here is ordered; after the read nothing references w and it
	// can be recycled. A timer event for a broadcast-woken w may still sit
	// in the heap — the generation bump in release marks it stale.
	timedOut := w.timedOut
	v.mu.Lock()
	v.releaseWaiterLocked(w)
	if held {
		v.busy--
	}
	v.mu.Unlock()
	if c.l != nil {
		c.l.Lock()
	}
	return !timedOut
}

// WaitRunner is WaitTimeout for a Runner: it arms r as a waiter on c and
// returns at once, and the next Broadcast or the timeout d from now —
// whichever comes first — runs r.Run on the pump (see Runner). r takes
// its place among goroutine waiters in arming order, so a Broadcast runs
// it exactly where a goroutine's wake would have been; the timeout takes
// it off the waiter list, so a later Broadcast does not run it again, and
// a timeout left behind by a Broadcast neither runs nor moves the clock.
// A negative d arms no timeout: only a Broadcast runs r, the way Wait
// relates to WaitTimeout, and arming pushes no event. Like every
// scheduling call it runs nothing. r must not be armed twice at once.
func (c *Cond) WaitRunner(d time.Duration, r Runner) {
	v := c.v
	v.mu.Lock()
	w := v.newWaiterLocked()
	w.cond, w.r = c, r
	c.waiters = append(c.waiters, w)
	if d >= 0 {
		v.pushLocked(v.now+d, w, nil, nil, 0)
	}
	v.mu.Unlock()
}

// Broadcast wakes all current waiters — as scheduled events at the current
// instant, one per waiter in arming order, not all at once. Marking fired
// here (rather than at delivery) keeps the at-most-one-wake-per-arming
// invariant: a pending timer for a broadcast waiter is recognized as dead
// the moment it pops. The wakes drain through the pump, so the waiters run
// serialized in arm order; a broadcast can never make two goroutines
// simultaneously runnable, and like every scheduling call it runs nothing
// itself.
func (c *Cond) Broadcast() {
	v := c.v
	v.mu.Lock()
	for _, w := range c.waiters {
		if !w.fired {
			w.fired = true
			v.pushBroadcastLocked(w)
		}
	}
	c.waiters = c.waiters[:0]
	v.mu.Unlock()
}

// Waiting reports how many waiters are armed on c: goroutines in Wait or
// WaitTimeout and Runners armed by WaitRunner, not yet woken.
func (c *Cond) Waiting() int {
	c.v.mu.Lock()
	defer c.v.mu.Unlock()
	return len(c.waiters)
}

// removeLocked drops a timed-out waiter from the list; callers hold v.mu.
func (c *Cond) removeLocked(w *waiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}
