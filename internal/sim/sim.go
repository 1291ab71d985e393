package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Time is virtual time in nanoseconds since the start of the run.
type Time int64

// Common virtual durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time in microseconds, the natural unit for the
// InfiniBand-class latencies the paper targets.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
}

// event is a scheduled callback. Ties on time are broken by insertion
// sequence so execution order is fully deterministic. When proc is non-nil
// the event resumes that process instead of calling fn — the dominant event
// shape (every wakeup), kept closure-free so Ready/Sleep never allocate.
// Events are pooled: the kernel recycles them once executed.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

// Config parameterises a kernel.
type Config struct {
	// Seed drives every random choice in the simulation (latency jitter,
	// workload randomness). Two runs with equal seeds are identical.
	Seed int64
	// MaxEvents aborts the run after this many events as a runaway guard.
	// Zero means the default of 50 million.
	MaxEvents uint64
	// MaxTime aborts the run once virtual time passes this bound.
	// Zero means unbounded.
	MaxTime Time
	// Chooser, when non-nil, resolves explicit nondeterministic choice
	// points (Kernel.Choose): an exhaustive-exploration driver supplies a
	// function that enumerates choice vectors systematically instead of
	// sampling them from the seed. Nil means every choice resolves to 0 —
	// the default schedule — and Choose never draws the RNG, so runs
	// without a chooser are bit-identical to runs built before the hook
	// existed.
	Chooser func(n int) int
	// MetaChooser, when non-nil, resolves metadata-carrying choice points
	// (Kernel.ChooseMeta) and takes precedence over Chooser there. The
	// metadata describes the delivery the choice schedules — link endpoints,
	// packet kind, area, timing — so an exploration driver can compute
	// independence between choice points without replaying the run. Choice
	// points raised through the plain Choose hook still resolve via Chooser.
	MetaChooser func(n int, m ChoiceMeta) int
}

// ChoiceMeta describes the delivery behind one latency choice point: which
// directed link it rides, what packet kind and modelled size, which memory
// area it concerns (1-based; 0 when the packet is not area-addressed), and
// the timing inputs the network will combine with the chosen step. Base is
// the unclamped arrival under choice 0 (send time plus modelled latency);
// Floor is the link's FIFO horizon at send time (the arrival is clamped up
// to it); Quantum is the extra latency added per chosen step. Together they
// let a driver compute the exact arrival of every alternative:
// max(Base + c×Quantum, Floor).
type ChoiceMeta struct {
	Src, Dst int
	Kind     int
	Size     int
	Area     int
	Now      Time
	Base     Time
	Floor    Time
	Quantum  Time
}

// Kernel is the simulation core. Create one with NewKernel, spawn processes,
// then call Run. A Kernel is not safe for concurrent use by real threads;
// concurrency lives inside the simulation.
//
// Scheduling is one driver and asymmetric coroutines: Run's goroutine is the
// only code that pops events, and every event callback runs on it. A process
// is an iter.Pull coroutine; an event that resumes it switches into it and
// gets control back when the process parks or finishes — two direct
// coroutine switches per wakeup, with no trip through the Go scheduler and
// so no dependence on GOMAXPROCS.
//
// A Kernel can also be one shard of a MultiKernel (multi.go): the same event
// loop then runs one conservative time window at a time, driven by the shard's
// runner (or the coordinator inline) up to the window horizon, and events
// pushed during a window carry provisional keys that the window barrier's
// serial replay rewrites into exact global sequence numbers.
type Kernel struct {
	cfg Config
	now Time
	seq uint64
	// horizon is the exclusive upper bound of the current drive: events at
	// or beyond it stay queued and drive returns. timeMax for a
	// standalone kernel (the horizon never triggers); a window end when the
	// kernel is a MultiKernel shard.
	horizon Time
	// mk, shard link a shard kernel to its MultiKernel (nil/0 standalone).
	mk    *MultiKernel
	shard int
	// winLog is set while a parallel window executes on this shard: pushes
	// take provisional keys and are logged for the barrier replay.
	winLog bool
	// windowLogs is the current window's log buffer.
	windowLogs
	curRec  execRec
	recOpen bool
	// queue holds all future events, ordered (time, seq), in a hierarchical
	// timing wheel (see wheel.go): O(1) amortised schedule and pop.
	queue wheel
	// nowQ holds events scheduled for the current instant. They would sit at
	// the wheel's front anyway (time now, larger seq than anything queued),
	// so a FIFO ring serves them in O(1) — the fast path every same-time
	// Ready()/Yield()/Defer() continuation takes, skipping the wheel entirely.
	nowQ  Ring[*event]
	free  []*event // recycled event structs
	rng   *rand.Rand
	procs []*Proc
	// runErr is the limit that ended the drive, if one did.
	runErr error
	// runPanic holds an event callback's panic recovered on a shard runner
	// (runWindow); MultiKernel.Run re-raises it on its own goroutine. A
	// standalone kernel never sets it: the panic escapes Run by itself.
	runPanic any
	events   uint64
	stopped  bool
}

// NewKernel returns a kernel with the given configuration.
func NewKernel(cfg Config) *Kernel {
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 50_000_000
	}
	return &Kernel{
		cfg:     cfg,
		horizon: timeMax,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// provBit marks a provisional event key: provBit | idx, assigned during a
// parallel window in shard-local push order (idx) and rewritten to the true
// global sequence number by the window barrier's serial replay. Provisional
// keys compare greater than every true key — correct, because anything
// pushed during a window was pushed after everything that already carried a
// true key — and among themselves by local push order, exactly the serial
// kernel's relative push order within one shard. Every barrier resolves
// every outstanding key, so provisional keys never outlive their window.
const provBit = uint64(1) << 63

// provState sentinels (non-negative values are execLog indices).
const (
	provPending  = int32(-1)
	provExecuted = int32(-2)
)

// pushEntry is one logged push of a parallel window.
type pushEntry struct {
	e   *event // local push (intra-shard event), nil for deferred sends
	env any    // deferred send envelope (opaque to sim; see EnvelopeFiler)
}

// windowLogs is one window's worth of per-shard replay state.
type windowLogs struct {
	// pushLog records every push of the window, in push order; entry i
	// belongs to provisional key provBit|i. An entry is either a local event
	// (e) or a deferred cross-shard/latency-drawing send (env).
	pushLog []pushEntry
	// provState[i] records what became of push i: provPending (its event is
	// still queued; the replay rewrites e.seq in place), provExecuted (it ran
	// without pushing anything; the replay only advances the key counter),
	// or the execLog index of its record (it ran and pushed/logged, so the
	// replay resolves that record's key).
	provState []int32
	// execLog records, in execution order, every window event that pushed
	// events or logged ordered actions; the barrier replay merges these
	// across shards into the exact serial order.
	execLog []execRec
	// actions are ordered side effects (LogOrdered) of the window, flushed
	// by the barrier replay in serial order.
	actions []func()
	// envs counts deferred envelopes logged this window. The coordinator
	// reads it at every sub-window barrier: a window with envelopes cannot
	// be extended (the arrivals bound the next window's start).
	envs int
}

// reset empties the logs for a new window, keeping capacity.
func (w *windowLogs) reset() {
	w.pushLog = w.pushLog[:0]
	w.provState = w.provState[:0]
	w.execLog = w.execLog[:0]
	w.actions = w.actions[:0]
	w.envs = 0
}

// execRec is one executed window event that produced pushes or ordered
// actions. key is the event's (possibly provisional) sequence key; the
// barrier replay resolves provisional keys before the record reaches its
// shard's merge head.
type execRec struct {
	at             Time
	key            uint64
	pushLo, pushHi int32
	actLo, actHi   int32
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from simulation context (process bodies and event handlers). A shard
// kernel shares its MultiKernel's source, which is only drawable in serial
// phases — drawing it from a parallel window panics, because the draw order
// would depend on the cross-shard interleaving (see MultiKernel.Rand).
func (k *Kernel) Rand() *rand.Rand {
	if k.mk != nil {
		return k.mk.Rand()
	}
	return k.rng
}

// Choose resolves one explicit choice point with n alternatives (n ≥ 1)
// and returns the chosen index in [0, n). Without a configured Chooser it
// returns 0 — deterministically, without touching the RNG — so the hook is
// free for every run that does not explore. Exploration drivers (see
// internal/mcheck) install a Chooser that replays a recorded prefix and
// extends it depth-first, turning the simulation into one branch of a
// systematically enumerated schedule tree.
func (k *Kernel) Choose(n int) int {
	if n <= 1 || k.cfg.Chooser == nil {
		return 0
	}
	c := k.cfg.Chooser(n)
	if c < 0 || c >= n {
		panic(fmt.Sprintf("sim: Chooser returned %d for %d alternatives", c, n))
	}
	return c
}

// ChooseMeta resolves one metadata-carrying choice point with n
// alternatives. With a MetaChooser configured it receives the delivery
// metadata alongside the arity; otherwise the call degrades to Choose(n),
// so drivers that only install the plain Chooser keep working as before.
func (k *Kernel) ChooseMeta(n int, m ChoiceMeta) int {
	if k.cfg.MetaChooser == nil {
		return k.Choose(n)
	}
	if n <= 1 {
		return 0
	}
	c := k.cfg.MetaChooser(n, m)
	if c < 0 || c >= n {
		panic(fmt.Sprintf("sim: MetaChooser returned %d for %d alternatives", c, n))
	}
	return c
}

// InWindow reports whether the kernel is currently executing a parallel
// window (pushes take provisional keys; cross-shard effects must be logged,
// and the shared RNG is undrawable).
func (k *Kernel) InWindow() bool { return k.winLog }

// Shard returns the kernel's shard index within its MultiKernel (0 for a
// standalone kernel).
func (k *Kernel) Shard() int { return k.shard }

// Multi returns the owning MultiKernel, nil for a standalone kernel.
func (k *Kernel) Multi() *MultiKernel { return k.mk }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.events }

// Schedule runs fn after delay d of virtual time (d may be zero; negative
// delays are clamped to zero). It may be called from process bodies, event
// handlers, or before Run; fn itself runs in event context.
//
//dsmlint:eventspawn
func (k *Kernel) Schedule(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+d, fn)
}

// At runs fn at absolute virtual time t (clamped to now); fn runs in event
// context.
//
//dsmlint:eventspawn
func (k *Kernel) At(t Time, fn func()) {
	k.push(t, fn, nil)
}

// Defer schedules fn at the current instant, behind everything already
// queued for it — the continuation-scheduling primitive. A deferred
// continuation occupies exactly the (time, seq) slot a Proc.Ready() wakeup
// pushed at the same point would, so an event-driven state machine (e.g. the
// RDMA initiator's continuation chain) interleaves with the rest of the
// simulation identically to the goroutine-parked code it replaces — without
// scheduling, waking, or parking any goroutine.
//
// Defer may only be called from event context (a delivery or event
// callback): the slot it files into is the *current event's* position in
// the global order, which only exists while an event is executing.
// dsmlint enforces this statically.
//
//dsmlint:eventctx
func (k *Kernel) Defer(fn func()) {
	k.push(k.now, fn, nil)
}

// atResume schedules p's resumption at absolute time t without allocating a
// closure.
func (k *Kernel) atResume(t Time, p *Proc) {
	k.push(t, nil, p)
}

// push enqueues an event: same-instant events go to the FIFO now-queue,
// future events to the timing wheel. Execution order is identical to a
// single (time, seq) priority queue — now-queue entries carry larger
// sequence numbers than any same-time event already queued, and the driver
// picks the smaller of the two fronts.
//
// Key assignment: a standalone kernel increments its own counter. A shard
// kernel takes true global keys from the MultiKernel's sequencer while in a
// serial phase (setup, barrier filing), and provisional shard-local keys —
// logged for the barrier replay — while a parallel window executes.
func (k *Kernel) push(t Time, fn func(), p *Proc) {
	if t < k.now {
		t = k.now
	}
	var key uint64
	if k.winLog {
		key = provBit | uint64(len(k.pushLog))
	} else if k.mk != nil {
		key = k.mk.nextKey()
	} else {
		k.seq++
		key = k.seq
	}
	e := k.newEvent(t, key, fn, p)
	if k.winLog {
		k.pushLog = append(k.pushLog, pushEntry{e: e})
		k.provState = append(k.provState, provPending)
	}
	if t == k.now {
		k.nowQ.PushBack(e)
		return
	}
	k.queue.push(e)
}

// PushKeyed schedules fn at absolute time t with an explicit, already
// assigned global key. It is the barrier replay's filing primitive for
// cross-shard and latency-deferred deliveries; serial phases only. fn runs
// in event context.
//
//dsmlint:eventspawn
func (k *Kernel) PushKeyed(t Time, key uint64, fn func()) {
	if k.winLog {
		panic("sim: PushKeyed during a parallel window")
	}
	if t < k.now {
		t = k.now
	}
	e := k.newEvent(t, key, fn, nil)
	if t == k.now {
		k.nowQ.PushBack(e)
		return
	}
	k.queue.push(e)
}

// LogEnvelope records a deferred send in the current window's push log: the
// envelope occupies exactly the key slot the serial kernel's delivery push
// occupied, and the barrier replay hands it (with its resolved key) to the
// registered EnvelopeFiler. env is opaque to the kernel.
func (k *Kernel) LogEnvelope(env any) {
	if !k.winLog {
		panic("sim: LogEnvelope outside a parallel window")
	}
	k.pushLog = append(k.pushLog, pushEntry{env: env})
	k.provState = append(k.provState, provPending)
	k.envs++
}

// LogOrdered runs fn as an ordered side effect of the current event. On a
// standalone kernel (or a shard in a serial phase) fn runs immediately;
// during a parallel window it is deferred to the window barrier, where the
// serial replay runs it at the executing event's exact position in the
// global order. Use it for effects on state shared across shards (e.g.
// appending to a global report collector) that must observe the serial
// kernel's order.
//
// LogOrdered may only be called from event context: the position it logs
// under is the currently executing event's, and outside one there is no
// such position. dsmlint enforces this statically.
//
//dsmlint:eventctx
func (k *Kernel) LogOrdered(fn func()) {
	if !k.winLog {
		fn()
		return
	}
	k.actions = append(k.actions, fn)
}

// newEvent takes an event from the pool (or allocates one) and fills it.
func (k *Kernel) newEvent(t Time, key uint64, fn func(), p *Proc) *event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		e = &event{}
	}
	e.at, e.seq, e.fn, e.proc = t, key, fn, p
	return e
}

// recycle returns an executed event to the pool, dropping its references.
func (k *Kernel) recycle(e *event) {
	e.fn, e.proc = nil, nil
	k.free = append(k.free, e)
}

// Stop aborts the run after the current event completes. Run reports no
// deadlock for a stopped run; processes still parked are unwound (see Run).
func (k *Kernel) Stop() { k.stopped = true }

// ProcState describes where a process is in its lifecycle.
type ProcState int

// Process lifecycle states.
const (
	ProcReady ProcState = iota
	ProcRunning
	ProcParked
	ProcDone
)

// Proc is a simulated process. The function passed to Spawn receives its
// Proc and uses it for all blocking interactions with the simulation.
type Proc struct {
	ID   int
	Name string
	k    *Kernel
	// next switches from the driver into the process's coroutine and returns
	// when it parks or finishes; yield is the switch back (false once stop
	// has been called); stop unwinds a suspended coroutine. See iter.Pull.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	state ProcState
	// blockReason is a human-readable description of what the process is
	// waiting for, and blockN (when non-negative) a number that completes it
	// (see ParkN); surfaced by deadlock reports.
	blockReason string
	blockN      int
	err         error
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Err returns the process's terminal error (panic converted to error), if any.
func (p *Proc) Err() error { return p.err }

// BlockReason returns what a parked process is waiting on (the label
// deadlock reports print; see Park and Relabel), or "" when it is not
// parked. Only meaningful when read from inside the simulation — a kernel
// event or another process.
func (p *Proc) BlockReason() string {
	if p.state != ProcParked {
		return ""
	}
	if p.blockN >= 0 {
		return p.blockReason + " " + strconv.Itoa(p.blockN)
	}
	return p.blockReason
}

// reclaimed is the panic value that unwinds a process still parked when its
// run ends; Spawn's wrapper swallows it.
type reclaimed struct{}

// Spawn creates a process that starts executing fn at the current virtual
// time. It may be called before Run or from inside the simulation.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{ID: len(k.procs), Name: name, k: k}
	k.procs = append(k.procs, p)
	if k.mk != nil && !k.winLog {
		// Serial-phase spawns record global order for error precedence.
		// (In-window spawns stay shard-local; their errors surface in shard
		// order — acceptable, and dsm-level runs never spawn mid-window.)
		k.mk.procs = append(k.mk.procs, p)
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.state = ProcDone
			if r := recover(); r != nil && r != (reclaimed{}) {
				p.err = fmt.Errorf("sim: process %s panicked: %v", p.Name, r)
			}
		}()
		fn(p)
	})
	k.atResume(k.now, p)
	return p
}

// drive executes events on the calling goroutine until the queue drains, the
// next event lies at or beyond the horizon, a limit trips (runErr) or Stop
// is called. It is the only code that pops events: callbacks run in place,
// and an event that resumes a process switches into its coroutine and
// continues here when the process parks or finishes.
func (k *Kernel) drive() {
	for !k.stopped {
		// The next event is the (time, seq)-least of the wheel front and
		// the now-queue front. Every now-queue entry is at the current
		// instant; wheel entries at the same instant were scheduled earlier
		// (smaller seq) unless they were filed for this time *before* it
		// arrived. The peek is bounded by now when the now-queue can win,
		// so the wheel cursor never passes the kernel clock while events
		// can still be pushed behind it.
		var e *event
		if k.nowQ.Len() == 0 {
			// The horizon is exclusive: an event at or beyond it stays
			// queued and drive returns (window boundary). Standalone
			// kernels have horizon timeMax, which no event can reach. The
			// bounded peek also keeps the wheel cursor below the horizon, so
			// the barrier can still file deliveries at any later instant.
			if k.queue.peekWithin(k.horizon-1) == nil {
				return
			}
			e = k.queue.take()
		} else if we := k.queue.peekWithin(k.now); we != nil && we.seq < k.nowQ.Front().seq {
			e = k.queue.take()
		} else {
			e = k.nowQ.PopFront()
		}
		k.now = e.at
		if k.winLog {
			k.beginRec(e)
		}
		if k.cfg.MaxTime > 0 && k.now > k.cfg.MaxTime {
			k.runErr = &LimitError{What: "time", Events: k.events, Time: k.now}
			return
		}
		k.events++
		if k.events > k.cfg.MaxEvents {
			k.runErr = &LimitError{What: "event", Events: k.events, Time: k.now}
			return
		}
		fn, p := e.fn, e.proc
		k.recycle(e)
		if p == nil {
			fn()
		} else if p.state != ProcDone { // else a stale wakeup for a finished process
			p.state = ProcRunning
			p.next()
		}
	}
}

// reclaim unwinds every process still suspended now that the run is over, so
// no coroutine outlives it: stop makes the pending yield return false, Park
// turns that into a reclaimed panic, and Spawn's wrapper swallows it. A
// process that never started simply never will.
func (k *Kernel) reclaim() {
	for _, p := range k.procs {
		if p.state != ProcDone {
			p.stop()
			p.state = ProcDone
		}
	}
}

// beginRec closes the previous event's execution record and opens one for e.
// Only called while winLog is set; the records drive the barrier replay.
func (k *Kernel) beginRec(e *event) {
	k.closeRec()
	k.curRec = execRec{at: e.at, key: e.seq, pushLo: int32(len(k.pushLog)), actLo: int32(len(k.actions))}
	k.recOpen = true
}

// closeRec finalises the open execution record. Records with no pushes and
// no ordered actions are dropped — they contribute nothing to the replay —
// but their provisional key is marked executed so the replay knows not to
// rewrite a recycled event struct through a stale pointer.
func (k *Kernel) closeRec() {
	if !k.recOpen {
		return
	}
	k.recOpen = false
	k.curRec.pushHi = int32(len(k.pushLog))
	k.curRec.actHi = int32(len(k.actions))
	kept := k.curRec.pushHi > k.curRec.pushLo || k.curRec.actHi > k.curRec.actLo
	if k.curRec.key&provBit != 0 {
		idx := k.curRec.key &^ provBit
		if kept {
			k.provState[idx] = int32(len(k.execLog))
		} else {
			k.provState[idx] = provExecuted
		}
	}
	if kept {
		k.execLog = append(k.execLog, k.curRec)
	}
}

// beginWindow prepares the shard for one parallel window ending (exclusive)
// at horizon: provisional keys, push/action logging, and a cleared wheel
// peek cache (the barrier may have rewritten queued events' keys in place).
func (k *Kernel) beginWindow(horizon Time) {
	k.horizon = horizon
	k.winLog = true
	k.windowLogs.reset()
	k.queue.invalidatePeek()
}

// extendWindow moves an already-open window's horizon forward for the next
// sub-round of an adaptively extended window. The logs keep accumulating
// and the peek cache stays valid: no barrier ran in between, so no queued
// key moved and nothing was filed.
func (k *Kernel) extendWindow(horizon Time) {
	k.horizon = horizon
}

// endWindow closes window logging at the end of a (possibly extended)
// window. Coordinator context, shard quiescent; the replay's envelope
// filing (PushKeyed) requires winLog off.
func (k *Kernel) endWindow() {
	k.winLog = false
}

// runWindow executes the shard's events below the horizon set by
// beginWindow/extendWindow and returns with the sub-round's records
// closed. Called by the shard runner goroutine (or the coordinator inline).
// Logging stays open across sub-rounds — the coordinator's endWindow closes
// it. An event callback's panic must not take a runner goroutine (and with
// it the program) down, so it is parked in runPanic for MultiKernel.Run.
func (k *Kernel) runWindow() {
	defer func() {
		if r := recover(); r != nil {
			k.runPanic = r
		}
		k.closeRec()
	}()
	k.drive()
}

// nextEventBound returns a lower bound on the virtual time of the shard's
// earliest pending event, without moving the wheel cursor — the cursor must
// never pass a window horizon, or a later barrier filing behind it would be
// misfiled (cursor-safety invariant). The bound is exact for now-queue and
// level-0 events; for events still parked in coarse buckets it is the
// bucket's start time, which the next window's bounded peek refines by
// cascading (so repeated empty windows always make progress).
func (k *Kernel) nextEventBound() (Time, bool) {
	if k.nowQ.Len() > 0 {
		return k.now, true
	}
	if k.queue.len() == 0 {
		return 0, false
	}
	lvl, start := k.queue.next()
	if lvl < 0 {
		return 0, false
	}
	if start < k.queue.cur {
		// A coarse bucket's nominal start can predate the cursor; no event
		// in it does.
		start = k.queue.cur
	}
	return start, true
}

// Park suspends the calling process until something calls Ready on it.
// reason is shown in deadlock reports. It must only be called from the
// process's own body: it switches back to the driver, which resumes the
// process when its wakeup event surfaces.
func (p *Proc) Park(reason string) { p.ParkN(reason, -1) }

// ParkN is Park with a number completing the label: a deadlock report shows
// "reason n". The text is built only if such a report is, so a caller that
// parks once per numbered phase (a barrier epoch) formats nothing per park.
// A negative n means no number.
func (p *Proc) ParkN(reason string, n int) {
	p.state = ProcParked
	p.blockReason, p.blockN = reason, n
	if !p.yield(struct{}{}) {
		panic(reclaimed{}) // the run ended with this process still parked
	}
}

// Relabel replaces the parked calling-context process's block reason — used
// by event-driven operations that advance through several phases while their
// process stays parked, so a deadlock report names the phase actually stuck
// rather than the one the process first parked on. No-op unless p is parked.
func (p *Proc) Relabel(reason string) {
	if p.state == ProcParked {
		p.blockReason, p.blockN = reason, -1
	}
}

// Await parks p until *done is true, re-parking on stray wakeups. It is the
// join point of a continuation chain: an event-driven operation sets *done
// and calls Ready exactly once, and the process sleeps through anything
// else. reason labels the park in deadlock reports (see Relabel for
// updating it as a multi-phase operation advances).
func (p *Proc) Await(done *bool, reason string) {
	for !*done {
		p.Park(reason)
	}
}

// Ready schedules p to resume at the current virtual time. Safe to call
// from any simulation context (another process or an event handler);
// resumption always happens through the event queue, preserving determinism.
// Same-time wakeups take the kernel's now-queue fast path: no heap
// operations and no allocation.
func (p *Proc) Ready() {
	p.k.atResume(p.k.now, p)
}

// Sleep suspends the calling process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Still yield through the event queue so equal-time events interleave
		// deterministically.
		d = 0
	}
	p.k.atResume(p.k.now+d, p)
	// A sleeping process always has its wakeup queued, so the reason can
	// never surface in a deadlock report; a static label avoids formatting
	// a fresh string per sleep.
	p.Park("sleep")
}

// Yield gives other ready processes and events at the current time a turn
// to run.
func (p *Proc) Yield() { p.Sleep(0) }

// DeadlockError is returned by Run when the event queue drains while
// processes are still parked.
type DeadlockError struct {
	Time    Time
	Blocked []string // "name: reason" for each parked process
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v; blocked: %s", e.Time, strings.Join(e.Blocked, "; "))
}

// LimitError is returned when MaxEvents or MaxTime is exceeded.
type LimitError struct {
	What   string
	Events uint64
	Time   Time
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	return fmt.Sprintf("sim: %s limit exceeded at %v after %d events", e.What, e.Time, e.Events)
}

// Run executes the simulation until the event queue is empty, a limit trips,
// or Stop is called. It returns the first process error (panic) encountered,
// a DeadlockError if processes remain parked, or nil. A panic in an event
// callback escapes Run. However the run ends, processes still parked are
// unwound before Run returns (their deferred calls run; no goroutine is
// left behind).
func (k *Kernel) Run() error {
	defer k.reclaim()
	k.drive()
	if k.runErr != nil {
		return k.runErr
	}
	for _, p := range k.procs {
		if p.err != nil {
			return p.err
		}
	}
	if k.stopped {
		return nil
	}
	if blocked := appendBlocked(nil, k.procs); len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Time: k.now, Blocked: blocked}
	}
	return nil
}

// appendBlocked appends a "name: reason" entry for every parked process.
func appendBlocked(blocked []string, procs []*Proc) []string {
	for _, p := range procs {
		if p.state == ProcParked {
			blocked = append(blocked, p.Name+": "+p.BlockReason())
		}
	}
	return blocked
}

// QueueFingerprint folds the kernel's future-event profile into h: for every
// queued event, a commutative mix of its time distance from now and the
// process it resumes (0 for bare callbacks). Exploration drivers include it
// in state fingerprints so in-progress timed work — occupancy windows,
// sleeps, watchdogs — distinguishes otherwise-identical memory states. The
// per-event terms are folded by sum and xor, so neither the wheel's bucket
// layout nor insertion order shows through. Same-instant sequence order is
// not captured (event callbacks have no hashable identity); drivers that
// memoise on this fingerprint must validate against unreduced exploration,
// as internal/mcheck's equivalence gates do.
func (k *Kernel) QueueFingerprint(h uint64) uint64 {
	const prime = 1099511628211
	var sum, xor, cnt uint64
	add := func(e *event) {
		p := uint64(0)
		if e.proc != nil {
			p = uint64(e.proc.ID) + 1
		}
		m := (uint64(e.at-k.now)*0x9e3779b97f4a7c15 ^ p) * prime
		sum += m
		xor ^= m
		cnt++
	}
	k.queue.each(add)
	for i := 0; i < k.nowQ.Len(); i++ {
		add(k.nowQ.At(i))
	}
	h = (h ^ sum) * prime
	h = (h ^ xor) * prime
	h = (h ^ cnt) * prime
	return h
}
