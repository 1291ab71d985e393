package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// defaultExtensionCap bounds adaptive window extension: a window grows to at
// most this many lookahead-sized sub-rounds. The cap bounds log memory and
// the MaxEvents overshoot a window can accumulate before its barrier check.
const defaultExtensionCap = 64

// MultiKernelStats counts what the window/barrier machinery did during a
// run. Counters are exact and deterministic for a fixed configuration (they
// are pure functions of replayed state); the wall-clock fields are
// observability only.
type MultiKernelStats struct {
	// Windows is the number of windows executed — one barrier replay each.
	Windows uint64
	// SubWindows is the number of lookahead-sized sub-rounds released;
	// SubWindows/Windows is the mean adaptive extension factor.
	SubWindows uint64
	// Extensions counts sub-rounds beyond each window's first — the barrier
	// round trips adaptive extension eliminated.
	Extensions uint64
	// PipelinedReplays is always zero: pipelined replay was removed, and the
	// field survives only because benchmark/layers.go still reads it.
	PipelinedReplays uint64
	// ReplayRecords is the total execution records the barrier replays
	// merged across shards.
	ReplayRecords uint64
	// EnvelopesFiled is the number of deferred cross-shard/latency-drawing
	// sends filed by barrier replays.
	EnvelopesFiled uint64
	// WindowNs is wall time spent with shards released into a sub-round;
	// BarrierNs is wall time in the serial coordinator phases between
	// releases.
	WindowNs  int64
	BarrierNs int64
}

// MultiKernel partitions one simulation across K cooperating shard kernels,
// each owning a disjoint set of the simulated nodes, and executes it as a
// sequence of conservative time windows: every shard runs its own events
// for a window bounded by the network's minimum cross-node latency (the
// lookahead), so nothing a shard does inside a window can affect any other
// shard before the window ends. Between windows a serial barrier replay
// merges the shards' execution logs in exact (time, key) order and, walking
// that order, assigns every push its true global sequence number, draws any
// deferred latency randomness, files cross-shard deliveries into their
// destination shards, and flushes ordered side effects. The result is
// bit-identical to running the whole simulation on one Kernel —
// fingerprints, event counts, RNG streams and all — for any shard count.
//
// The equivalence argument, in three parts:
//
//  1. Within a window, shard state is disjoint (nodes are partitioned and
//     cross-shard interaction travels only through deliveries at least one
//     lookahead away), so the serial kernel's execution restricted to one
//     shard's events is exactly what the shard computes alone.
//
//  2. The only cross-shard coupling is the order of (a) global sequence
//     numbers, which break same-instant ties, and (b) shared-RNG draws.
//     Both are reconstructed by the barrier replay: the serial execution
//     order of a window is a deterministic K-way merge of the shard logs by
//     (time, key), and walking it replays push-key assignment and RNG draws
//     in exactly the serial kernel's order.
//
//  3. Draws that must happen mid-window (a process consuming the shared RNG
//     between operations) cannot be reconstructed — their order *is* the
//     serial interleaving — so MultiKernel.Rand panics during a parallel
//     window. Runs that need such draws must declare themselves serial-only
//     and run on a single kernel (see dsm.Config.SerialOnly).
//
// One optimisation preserves that equivalence while cutting barrier cost
// (see ARCHITECTURE.md, "Adaptive windows"): adaptive window extension runs
// a window as up to budget lookahead-sized sub-rounds in lockstep, with only
// a cheap placement scan between them and one barrier replay at the end. A
// sub-round that logs any envelope ends the window immediately — the
// envelope's arrival lies at or beyond the next sub-round's start, so it
// must be filed first — which makes the extension sound: a window is
// extended only through traffic-free regions, where the per-sub-round
// replays it elides would have been empty anyway.
// The budget doubles after each envelope-free window (up to a cap) and
// resets to one on any envelope: a pure function of replayed state, so the
// window placement — and with it every fingerprint — is reproducible.
//
// There is exactly one way to run a window and nothing to configure. How a
// sub-round reaches the shards is read from the host at construction: with
// GOMAXPROCS > 1 one runner goroutine per shard is released through a spin
// barrier; with GOMAXPROCS == 1 the coordinator drives the shards itself.
// The choice affects speed only, never results.
type MultiKernel struct {
	cfg    Config
	window Time
	shards []*Kernel
	rng    *rand.Rand
	// inWindow guards the shared RNG: set while shard goroutines execute.
	inWindow atomic.Bool
	// gseq is the global sequence counter; serial phases only.
	gseq uint64
	// filer receives deferred-send envelopes with their resolved keys during
	// the barrier replay (registered by the network layer).
	filer func(env any, key uint64)
	// hooks run serially at every barrier after the replay (pool settling).
	hooks []func()
	// procs is every process in global spawn order (error precedence).
	procs []*Proc
	// epoch/doneCount are the window barrier: the coordinator bumps epoch
	// to release the runners into a sub-round and spins until doneCount
	// reaches the shard count. Sequentially consistent atomics, so the
	// bump/observe pairs are the happens-before edges that order one
	// shard's window against every other shard's next window (and the
	// serial barrier in between). Spinning (with Gosched backoff) instead
	// of channel hand-offs matters: sub-rounds are one network lookahead
	// long — microseconds of virtual time, often under a microsecond of
	// real work — and a futex sleep-and-wake pair per shard per round costs
	// more than the round itself.
	epoch     atomic.Uint64
	doneCount atomic.Int64
	quit      bool // read by runners after an epoch bump (hb via epoch)
	// inline is the single-core regime (GOMAXPROCS == 1): the coordinator
	// drives every active shard's sub-round itself, in shard order, with no
	// runner goroutines and no hand-offs at all — on one core nothing runs
	// concurrently anyway. Otherwise the spin barrier above is used.
	inline bool
	// extCap caps adaptive window extension (sub-rounds per window); budget
	// is the current window's allowance under the doubling rule.
	extCap int
	budget int
	// active flags the shards released into the current sub-round (a shard
	// with no event below the horizon skips the whole round trip — on a
	// serialized workload most rounds touch one shard); bounds caches the
	// per-shard next-event lower bounds of the placement pass. joined flags
	// the shards that opened logs for the current window (they may sit out
	// individual sub-rounds).
	active []bool
	bounds []Time
	joined []bool
	// lanes/ltree/lwin are the replay merge's loser-tree scratch.
	lanes []mergeLane
	ltree []int32
	lwin  []int32
	stats MultiKernelStats
	// runErr is the run-aborting error chosen at a barrier (earliest trip).
	runErr error
}

// mergeLane is one shard's record stream in a barrier replay, with its head
// record's (at, key) snapshot. The snapshot is stable: a record's key is
// always resolved by the time it becomes the lane head (its pusher sits
// earlier in the same shard's log).
type mergeLane struct {
	logs *windowLogs
	pos  int
	at   Time
	key  uint64
	done bool
}

// NewMultiKernel creates a multi-kernel of k shards sharing cfg's seed and
// limits, advancing in conservative windows of the given lookahead (must be
// positive). Each shard is a full Kernel; spawn processes on the shard that
// owns their node, then call Run.
func NewMultiKernel(cfg Config, k int, lookahead Time) *MultiKernel {
	if k < 1 {
		panic("sim: MultiKernel needs at least one shard")
	}
	if lookahead < 1 {
		panic("sim: MultiKernel needs a positive lookahead")
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 50_000_000
	}
	m := &MultiKernel{
		cfg:    cfg,
		window: lookahead,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		active: make([]bool, k),
		bounds: make([]Time, k),
		joined: make([]bool, k),
		lanes:  make([]mergeLane, 0, k),
		ltree:  make([]int32, k),
		lwin:   make([]int32, k),
		inline: runtime.GOMAXPROCS(0) == 1,
		extCap: defaultExtensionCap,
		budget: 1,
	}
	for i := 0; i < k; i++ {
		s := NewKernel(cfg)
		s.mk, s.shard = m, i
		m.shards = append(m.shards, s)
	}
	return m
}

// spinWait spins until cond holds, yielding the processor between probes so
// co-scheduled trials and the coordinator stay runnable.
func spinWait(cond func() bool) {
	for i := 0; !cond(); i++ {
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
}

// Stats returns the run's window/barrier counters.
func (m *MultiKernel) Stats() MultiKernelStats { return m.stats }

// Shards returns the shard count.
func (m *MultiKernel) Shards() int { return len(m.shards) }

// Shard returns shard i's kernel. Spawn node-owned processes here.
func (m *MultiKernel) Shard(i int) *Kernel { return m.shards[i] }

// Lookahead returns the conservative window length.
func (m *MultiKernel) Lookahead() Time { return m.window }

// nextKey hands out the next true global sequence number. Serial phases
// only; shard kernels route their pushes here outside parallel windows.
func (m *MultiKernel) nextKey() uint64 {
	m.gseq++
	return m.gseq
}

// Rand returns the shared deterministic random source. It may only be drawn
// in serial phases (setup and the barrier replay, where draw order equals
// the serial kernel's); drawing it while a parallel window executes would
// make the stream depend on the cross-shard interleaving, so that panics.
func (m *MultiKernel) Rand() *rand.Rand {
	if m.inWindow.Load() {
		panic("sim: shared RNG drawn during a parallel window; this run must be serial-only (one kernel)")
	}
	return m.rng
}

// SetEnvelopeFiler registers the callback the barrier replay hands deferred
// send envelopes to, together with their resolved global keys. The filer
// runs serially, may draw Rand(), and files the delivery with PushKeyed.
func (m *MultiKernel) SetEnvelopeFiler(fn func(env any, key uint64)) { m.filer = fn }

// OnBarrier registers fn to run serially at every window barrier, after the
// replay (e.g. cross-shard pool settling). Hooks also run once before Run
// returns.
func (m *MultiKernel) OnBarrier(fn func()) { m.hooks = append(m.hooks, fn) }

// Now returns the latest shard time — after Run, the virtual time of the
// last executed event, exactly as a standalone kernel reports it.
func (m *MultiKernel) Now() Time {
	var t Time
	for _, s := range m.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// Events returns the total executed event count across shards.
func (m *MultiKernel) Events() uint64 {
	var n uint64
	for _, s := range m.shards {
		n += s.events
	}
	return n
}

// Stop aborts the run at the next window barrier.
func (m *MultiKernel) Stop() {
	for _, s := range m.shards {
		s.stopped = true
	}
}

// stopped reports whether any shard was stopped (Stop, or Kernel.Stop from
// inside a window).
func (m *MultiKernel) stopped() bool {
	for _, s := range m.shards {
		if s.stopped {
			return true
		}
	}
	return false
}

// runners starts one goroutine per shard; each executes sub-rounds on
// demand until Run releases it for good. Observing the epoch bump publishes
// everything the barrier wrote (other shards' window effects included) to
// the shard; the done increment publishes the shard's sub-round back to the
// barrier. The inline regime never starts them.
func (m *MultiKernel) runners() {
	for i := range m.shards {
		go func(i int) {
			s := m.shards[i]
			last := uint64(0)
			for {
				spinWait(func() bool { return m.epoch.Load() != last })
				last = m.epoch.Load()
				if m.quit {
					return
				}
				if m.active[i] {
					s.runWindow()
				}
				m.doneCount.Add(1) // every runner acks, idle ones at once
			}
		}(i)
	}
}

// place scans every shard's next-event bound and selects the shards taking
// part in the next sub-round: those with a pending event below one
// lookahead past the earliest bound. The bound may be coarse (a far-future
// event still parked in a high wheel bucket), in which case the sub-round
// comes up empty and the next round's refined bound moves it forward —
// never backward, and never past a time the barrier could still file into.
// One placement pass serves both the window decision and the release; it
// returns the sub-round's (exclusive) horizon.
func (m *MultiKernel) place() (Time, bool) {
	var begin Time
	any := false
	for i, s := range m.shards {
		at, ok := s.nextEventBound()
		m.active[i] = ok
		if ok {
			m.bounds[i] = at
			if !any || at < begin {
				begin, any = at, true
			}
		}
	}
	if !any {
		return 0, false
	}
	horizon := begin + m.window
	for i := range m.shards {
		m.active[i] = m.active[i] && m.bounds[i] < horizon
	}
	return horizon, true
}

// subRound runs one sub-round on every active shard and returns when all
// have reached the horizon: inline, the coordinator drives each active shard
// in shard order itself; otherwise bumping the epoch wakes every runner and the
// coordinator spins until all have acked.
func (m *MultiKernel) subRound() {
	if m.inline {
		for i, s := range m.shards {
			if m.active[i] {
				s.runWindow()
			}
		}
		return
	}
	m.doneCount.Store(0)
	m.epoch.Add(1)
	want := int64(len(m.shards))
	spinWait(func() bool { return m.doneCount.Load() == want })
}

// Run executes the simulation to completion: windows in parallel, barriers
// in series. Semantics match Kernel.Run, with two documented deviations on
// *aborted* runs only: MaxEvents is enforced against the cross-shard total
// at each sub-round barrier (a shard-local round can overshoot before the
// check), and a MaxTime/Stop/panic in one shard lets other shards finish
// the current sub-round before the run stops. Clean runs are bit-identical.
func (m *MultiKernel) Run() error {
	if !m.inline {
		m.runners()
	}
	// Wall-clock reads feed the WindowNs/BarrierNs overhead counters only —
	// host-side metrics, never virtual state or a fingerprint.
	mark := time.Now() //dsmlint:wallclock metrics only
	tick := func(acc *int64) {
		now := time.Now() //dsmlint:wallclock metrics only
		*acc += now.Sub(mark).Nanoseconds()
		mark = now
	}
	defer func() {
		for _, fn := range m.hooks {
			fn()
		}
		tick(&m.stats.BarrierNs)
	}()
	for !m.stopped() {
		// One window: up to budget lookahead-sized sub-rounds in lockstep,
		// with only a placement pass between rounds and one barrier replay
		// at the end. Any envelope ends the window at that sub-round — its
		// arrival lies at or beyond the next round's start and must be
		// filed first — and so does any ordered action, which must run
		// before later events can observe its effects. Errors, stops and
		// the event cap end the window likewise.
		opened, quiet := false, true
		for sub := 0; sub < m.budget; sub++ {
			horizon, any := m.place()
			if !any {
				break
			}
			for i, s := range m.shards {
				if !m.active[i] {
					continue
				}
				if !m.joined[i] {
					s.beginWindow(horizon)
					m.joined[i] = true
				} else {
					s.extendWindow(horizon)
				}
			}
			opened = true
			m.stats.SubWindows++
			if sub > 0 {
				m.stats.Extensions++
			}
			tick(&m.stats.BarrierNs)
			m.inWindow.Store(true)
			m.subRound()
			m.inWindow.Store(false)
			tick(&m.stats.WindowNs)
			for i, s := range m.shards {
				if m.joined[i] && (s.envs > 0 || len(s.actions) > 0 ||
					s.runErr != nil || s.runPanic != nil || s.stopped) {
					quiet = false
				}
			}
			if !quiet || m.Events() > m.cfg.MaxEvents {
				break
			}
		}
		if !opened {
			break // every shard drained: the run is over
		}
		m.stats.Windows++
		for i, s := range m.shards {
			if m.joined[i] {
				s.endWindow()
			}
		}
		m.replay()
		// The replay may have rewritten queued events' keys in place or
		// filed deliveries into any shard; drop every cached wheel peek.
		for i, s := range m.shards {
			s.queue.invalidatePeek()
			m.joined[i] = false
		}
		for _, fn := range m.hooks {
			fn()
		}
		// Extension rule: a quiet window (no envelopes, no ordered actions)
		// doubles the next window's sub-round budget, up to the cap; any
		// cross-shard traffic resets it. A pure function of replayed state,
		// so window placement — and with it every fingerprint — is
		// reproducible.
		if quiet {
			m.budget *= 2
			if m.budget > m.extCap {
				m.budget = m.extCap
			}
		} else {
			m.budget = 1
		}
		if err := m.abortError(); err != nil {
			m.runErr = err
			break
		}
		if p := m.panicked(); p != nil {
			break // re-raised by finish, after the runners are released
		}
	}
	// Release the shard runner goroutines for good.
	if !m.inline {
		m.quit = true
		m.epoch.Add(1)
	}
	return m.finish()
}

// replay is the serial window barrier: merge the joined shards' execution
// records in exact (time, key) order and, walking that order, assign every
// logged push its true global key — rewriting still-queued events in place,
// resolving in-window-executed records, and filing deferred-send envelopes
// (which draw any latency randomness here, in serial order) — and run the
// ordered actions.
func (m *MultiKernel) replay() {
	m.lanes = m.lanes[:0]
	for i, s := range m.shards {
		if !m.joined[i] || len(s.execLog) == 0 {
			continue
		}
		rec := &s.execLog[0]
		// A provisional key at a lane head is impossible: the pusher of an
		// in-window event sits earlier in the same shard's log and resolved it
		// when its own record was processed. That is also why lane-head
		// snapshots are stable while a record waits in the loser tree.
		if rec.key&provBit != 0 {
			panic("sim: unresolved provisional key at merge head")
		}
		m.lanes = append(m.lanes, mergeLane{logs: &s.windowLogs, at: rec.at, key: rec.key})
	}
	m.mergeLanes()
}

// processRec replays one record: assign true keys to its pushes (filing
// envelopes, resolving records, rewriting queued events) and run its
// ordered actions.
func (m *MultiKernel) processRec(l *mergeLane) {
	logs := l.logs
	rec := &logs.execLog[l.pos]
	for i := rec.pushLo; i < rec.pushHi; i++ {
		key := m.nextKey()
		pe := &logs.pushLog[i]
		if pe.env != nil {
			m.filer(pe.env, key)
			m.stats.EnvelopesFiled++
			continue
		}
		switch st := logs.provState[i]; st {
		case provPending:
			pe.e.seq = key // still queued in the shard's wheel
		case provExecuted:
			// Ran inside the window without pushing anything: the key is
			// consumed (the serial kernel assigned one) but nothing survives
			// to carry it.
		default:
			logs.execLog[st].key = key // resolve the in-window record
		}
	}
	for i := rec.actLo; i < rec.actHi; i++ {
		logs.actions[i]()
	}
	m.stats.ReplayRecords++
}

// laneAdvance moves a lane to its next record, snapshotting its (at, key).
func (m *MultiKernel) laneAdvance(l *mergeLane) {
	l.pos++
	if l.pos >= len(l.logs.execLog) {
		l.done = true
		return
	}
	rec := &l.logs.execLog[l.pos]
	if rec.key&provBit != 0 {
		panic("sim: unresolved provisional key at merge head")
	}
	l.at, l.key = rec.at, rec.key
}

// laneBeats orders lanes by head (at, key); exhausted lanes lose to live
// ones. Keys are globally unique, so live lanes never tie.
func (m *MultiKernel) laneBeats(a, b int32) bool {
	la, lb := &m.lanes[a], &m.lanes[b]
	if la.done || lb.done {
		return !la.done && lb.done
	}
	if la.at != lb.at {
		return la.at < lb.at
	}
	return la.key < lb.key
}

// ltBuild builds the loser tree bottom-up over M lanes (conceptual leaves
// at positions M..2M-1, lane j at M+j; internal node x stores the loser of
// its match) and returns the overall winner.
func (m *MultiKernel) ltBuild(M int) int {
	tree, win := m.ltree, m.lwin
	for x := M - 1; x >= 1; x-- {
		var a, b int32
		if 2*x >= M {
			a = int32(2*x - M)
		} else {
			a = win[2*x]
		}
		if 2*x+1 >= M {
			b = int32(2*x + 1 - M)
		} else {
			b = win[2*x+1]
		}
		if m.laneBeats(b, a) {
			a, b = b, a
		}
		win[x], tree[x] = a, b
	}
	return int(win[1])
}

// ltUpdate replays lane w's matches from its leaf to the root after its
// head advanced, and returns the new overall winner.
func (m *MultiKernel) ltUpdate(M, w int) int {
	cur := int32(w)
	for x := (M + w) / 2; x >= 1; x /= 2 {
		if m.laneBeats(m.ltree[x], cur) {
			m.ltree[x], cur = cur, m.ltree[x]
		}
	}
	return int(cur)
}

// ltSecond returns the best lane among the losers on w's root path — the
// true runner-up (any lane not on the path lost to some lane that is), and
// therefore the threshold for consuming a run of records from w without
// touching the tree.
func (m *MultiKernel) ltSecond(M, w int) int {
	best := int32(-1)
	for x := (M + w) / 2; x >= 1; x /= 2 {
		if best < 0 || m.laneBeats(m.ltree[x], best) {
			best = m.ltree[x]
		}
	}
	return int(best)
}

// mergeLanes walks the K-way merge of the assembled lanes in exact
// (time, key) order, processing every record. A loser tree picks the
// winning lane in O(log K), and per-shard run detection consumes
// consecutive records of the winning lane while they stay below the
// runner-up's head — O(1) per record on runny inputs (a shard's records
// within one instant, or one shard dominating a quiet stretch) — replacing
// the old O(K)-per-record best-scan.
func (m *MultiKernel) mergeLanes() {
	M := len(m.lanes)
	switch M {
	case 0:
		return
	case 1:
		l := &m.lanes[0]
		for !l.done {
			m.processRec(l)
			m.laneAdvance(l)
		}
		return
	}
	total := 0
	for i := range m.lanes {
		total += len(m.lanes[i].logs.execLog)
	}
	w := m.ltBuild(M)
	for consumed := 0; consumed < total; {
		l := &m.lanes[w]
		sec := m.ltSecond(M, w)
		ls := &m.lanes[sec]
		for {
			m.processRec(l)
			consumed++
			m.laneAdvance(l)
			if l.done {
				break
			}
			if !ls.done && (l.at > ls.at || (l.at == ls.at && l.key > ls.key)) {
				break
			}
		}
		w = m.ltUpdate(M, w)
	}
}

// abortError collects a limit abort: MaxEvents against the cross-shard
// total, plus any shard-local error (MaxTime) — earliest trip time wins.
func (m *MultiKernel) abortError() error {
	var first *LimitError
	for _, s := range m.shards {
		if le, ok := s.runErr.(*LimitError); ok && (first == nil || le.Time < first.Time) {
			first = le
		}
	}
	if first != nil {
		return first
	}
	if total := m.Events(); total > m.cfg.MaxEvents {
		return &LimitError{What: "event", Events: total, Time: m.Now()}
	}
	return nil
}

// panicked returns the first (by shard order) captured event panic.
func (m *MultiKernel) panicked() any {
	for _, s := range m.shards {
		if s.runPanic != nil {
			return s.runPanic
		}
	}
	return nil
}

// finish assembles the run result exactly as Kernel.Run does: panic first,
// then the run error, then process errors in spawn order, then a deadlock
// report over every still-parked process — and, like it, unwinds those
// processes once the result is read.
func (m *MultiKernel) finish() error {
	defer func() {
		for _, s := range m.shards {
			s.reclaim()
		}
	}()
	if p := m.panicked(); p != nil {
		panic(p)
	}
	if m.runErr != nil {
		return m.runErr
	}
	for _, s := range m.shards {
		if s.runErr != nil {
			return s.runErr
		}
	}
	for _, p := range m.procs {
		if p.err != nil {
			return p.err
		}
	}
	if m.stopped() {
		return nil
	}
	var blocked []string
	for _, s := range m.shards {
		blocked = appendBlocked(blocked, s.procs)
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Time: m.Now(), Blocked: blocked}
	}
	return nil
}
