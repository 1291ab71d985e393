package rdma

import (
	"slices"

	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// initOp is a pooled initiator-side operation in continuation-passing style —
// the symmetric counterpart of the home side's homeOp. The initiating
// process issues the first request and parks exactly once (Proc.Await); from
// then on the operation advances entirely in event context: each reply is
// absorbed by a pre-bound continuation, and each follow-up phase runs in a
// Kernel.Defer slot — the exact (time, seq) position the old parked path's
// per-hop process wakeup occupied, which is what keeps every fingerprint
// (durations, message order, RNG draws) bit-identical to that path. Only the
// final reply wakes the goroutine, and the operation's tail (coherence-copy
// patching, absorb-buffer hand-off, pool release) runs on the process as
// before.
//
// Who owns o.rr, the reply, its payload and the absorb clock at each hop is
// tabulated in ARCHITECTURE.md ("Who owns the bytes").
//
// All continuation funcs are bound once when the struct is first created, so
// a steady-state operation allocates nothing.
type initOp struct {
	n     *NIC
	p     *sim.Proc
	rr    *req         // in-flight pooled request (nil between hops)
	next  func(*resp)  // reply continuation for the in-flight request
	kind  network.Kind // in-flight request kind (park label)
	done  bool
	owner int32 // pool shard that grabbed this struct

	// Operation inputs (only what the literal-protocol continuations read;
	// single-round-trip ops carry their inputs in the req alone).
	area       memory.Area
	off, count int
	data       []memory.Word
	acc        core.Access
	lockOn     bool // literal protocol: internal area lock taken

	// into receives the reply payload from word skip on (nonzero only for a
	// fetch, whose reply is the whole area): the entry point's destination,
	// or — left nil — a fresh slice of want words the caller will own.
	into       []memory.Word
	skip, want int

	// Results, filled by reply continuations.
	outData []memory.Word // the filled prefix of into; nil until a reply carried data
	clock   vclock.Masked
	errs    string
	v, w    vclock.VC
	ver     uint64    // causal: area version carried by a write ack / fetch reply
	dep     vclock.VC // causal: dependency clock of that version (fresh copy, ours)
	excl    bool      // mesi: fetch reply granted exclusivity

	// Fault lifecycle (armed only under a hostile schedule — see fault.go):
	// the request template and coordinates to retransmit from, the deadline
	// the NIC watchdog scans, and the attempt counter against the budget.
	tmpl        req
	dst         network.NodeID
	size        int
	attempt     int
	deadline    sim.Time
	dropped     bool // the in-flight request was dropped at send
	unreachable bool // failed with ErrUnreachable (budget exhausted)

	// Pre-bound continuations (see the methods of the same names).
	captureFn       func(*resp) // single round-trip ops: absorb + finish
	fetchCaptureFn  func(*resp) // fetch miss: install the copy, then finish
	grantFn         func(*resp) // literal: internal lock granted
	stage1Fn        func()      // literal: first post-grant phase (per-op, set at start)
	putStage1Fn     func()
	putClocks1Fn    func(*resp)
	putStage2Fn     func()
	putAckFn        func(*resp)
	putStage3Fn     func()
	putClocksDiscFn func(*resp)
	putStage4Fn     func()
	putClocks3Fn    func(*resp)
	getStage1Fn     func()
	getClocks1Fn    func(*resp)
	getStage2Fn     func()
	getReplyFn      func(*resp)
	getStage3Fn     func()
	getClocks2Fn    func(*resp)
}

// grabInit takes an initiator operation from the pool, binding its
// continuations once on first creation. Initiator operations are grabbed
// and released on the initiating node's shard, so n.ps is always the right
// pool.
func (s *System) grabInit(n *NIC, p *sim.Proc) *initOp {
	ps := n.ps
	ps.balance.InitOps++
	var o *initOp
	if k := len(ps.initPool); k > 0 {
		o = ps.initPool[k-1]
		ps.initPool = ps.initPool[:k-1]
		o.owner = int32(ps.idx)
	} else {
		o = &initOp{owner: int32(ps.idx)}
		o.captureFn = o.capture
		o.fetchCaptureFn = o.fetchCapture
		if s.cfg.Protocol == ProtocolLiteral {
			o.bindLiteral()
		}
	}
	o.n, o.p = n, p
	return o
}

// bindLiteral binds the literal protocol's hop continuations, once per
// struct; piggyback runs never take them and skip the closures.
func (o *initOp) bindLiteral() {
	o.grantFn = o.grant
	o.putStage1Fn = o.putStage1
	o.putClocks1Fn = o.putClocks1
	o.putStage2Fn = o.putStage2
	o.putAckFn = o.putAck
	o.putStage3Fn = o.putStage3
	o.putClocksDiscFn = o.putClocksDiscard
	o.putStage4Fn = o.putStage4
	o.putClocks3Fn = o.putClocks3
	o.getStage1Fn = o.getStage1
	o.getClocks1Fn = o.getClocks1
	o.getStage2Fn = o.getStage2
	o.getReplyFn = o.getReply
	o.getStage3Fn = o.getStage3
	o.getClocks2Fn = o.getClocks2
}

// releaseInit recycles a completed initiator operation. The caller must have
// taken ownership of (or released) every result buffer first. ps is the
// releasing context's pool shard (the initiator's own, in every current
// caller).
func releaseInit(ps *shardPools, o *initOp) {
	owner := o.owner
	if o.deadline != 0 || o.unreachable {
		// Fault state was armed for this op (deadline set at issue, or a
		// failure recorded); clear it. The gate keeps fault-free runs from
		// paying a template memclr per operation.
		o.tmpl = req{}
		o.dst, o.size, o.attempt, o.deadline = 0, 0, 0, 0
		o.dropped, o.unreachable = false, false
	}
	o.n, o.p, o.rr, o.next, o.stage1Fn = nil, nil, nil, nil, nil
	o.done, o.lockOn = false, false
	o.data, o.into, o.outData, o.v, o.w = nil, nil, nil, nil, nil
	o.skip, o.want = 0, 0
	o.dep = nil
	o.ver, o.excl = 0, false
	o.acc = core.Access{}
	o.clock = vclock.Masked{}
	o.errs = ""
	if int(owner) == ps.idx {
		ps.balance.InitOps--
		ps.initPool = append(ps.initPool, o)
		return
	}
	ps.ret[owner].inits = append(ps.ret[owner].inits, o)
}

// newReq grabs the request of the operation's next hop and stamps what every
// hop carries; the caller fills the rest in place and hands it to issue.
func (o *initOp) newReq(area memory.Area) *req {
	n := o.n
	rr := n.ps.grabReq()
	rr.id, rr.origin, rr.area = n.ps.nextReq(), n.id, area
	return rr
}

// issue sends one request hop of the operation (rr, from newReq) and
// registers cont as its reply continuation. The park label follows the
// in-flight kind, so a deadlock report names the hop actually stuck (Relabel
// is a no-op on the first hop, where the process has not parked yet — Await
// supplies the label there).
func (o *initOp) issue(dst network.NodeID, kind network.Kind, size int, rr *req, cont func(*resp)) {
	n := o.n
	o.rr, o.next, o.kind = rr, cont, kind
	if n.sys.fArm {
		// Record the retransmission template and deadline BEFORE sending: a
		// send-time drop runs the drop hook synchronously inside Send, and
		// the hook recognises a fault-tracked op by its nonzero deadline.
		// A retransmission can outlive the operation, and with it n.wbuf and
		// the process's lock set: under faults every send shares private copies.
		rr.data, rr.acc.Locks = slices.Clone(rr.data), slices.Clone(rr.acc.Locks)
		o.tmpl.copyFrom(rr)
		o.dst, o.size = dst, size
		o.attempt, o.dropped = 0, false
		o.deadline = n.k.Now() + n.sys.ftimeout
	}
	n.addPending(rr.id, o)
	n.sys.net.Send(&network.Message{Src: n.id, Dst: dst, Kind: kind, Size: size, Area: wireArea(rr.area), Payload: rr})
	if n.sys.fArm {
		n.armWatchdog(o.deadline)
	}
	o.p.Relabel(parkReason(kind))
}

// absorb releases the hop's request and detaches the pooled resp's payload
// fields into the operation; the resp itself goes back to its pool. Every
// reply continuation starts here, in the initiator's shard context — a
// foreign-owned req/resp (home on another shard) settles home at the next
// window barrier.
func (o *initOp) absorb(rs *resp) {
	ps := o.n.ps
	if o.rr != nil {
		if o.n.sys.faultOn {
			// Home-side request ownership under faults: the home released
			// the req after replying (it cannot know whether the initiator
			// will ever see this reply), so only drop the reference.
			o.rr = nil
		} else {
			ps.releaseReq(o.rr)
			o.rr = nil
		}
	}
	o.next = nil
	// Only overwrite fields the reply actually carries: a literal-protocol
	// clock fetch must not clobber the data an earlier hop captured, and
	// vice versa.
	if rs.data != nil {
		if o.into == nil {
			o.into = make([]memory.Word, o.want)
		}
		o.outData = o.into[:copy(o.into, rs.data[o.skip:])]
	}
	if rs.err != "" {
		o.errs = rs.err
	}
	if rs.v != nil || rs.w != nil {
		o.v, o.w = rs.v, rs.w
	}
	if !rs.clock.IsNil() {
		o.clock = rs.clock
	}
	if rs.ver != 0 {
		o.ver = rs.ver
	}
	if rs.dep != nil {
		o.dep = rs.dep
	}
	if rs.excl {
		o.excl = true
	}
	ps.releaseResp(rs)
}

// finish completes the operation: the single process wakeup of its lifetime.
func (o *initOp) finish() {
	o.done = true
	o.p.Ready()
}

// await parks the process until the continuation chain completes.
func (o *initOp) await() {
	o.p.Await(&o.done, parkReason(o.kind))
}

// capture is the reply continuation of every single-round-trip operation
// (piggyback put/get/atomic, lock grant): absorb the reply and wake the
// process for the tail.
func (o *initOp) capture(rs *resp) {
	o.absorb(rs)
	o.finish()
}

// fetchCapture is the fetch-miss reply continuation: the copy is installed
// into the coherence state here, in the reply's own delivery slot, before the
// process wakeup. The home sends the reply before any invalidation for a
// later write to the same area, and the link FIFO preserves that order — but
// both can land in the same instant, and the invalidation's handler would run
// between this delivery and a process-side install, finding no copy to drop
// and leaving a stale line the home believes invalidated. Installing here
// keeps the reply's protocol action atomic with its delivery.
// The install reads the reply's pooled payload, so it precedes absorb.
func (o *initOp) fetchCapture(rs *resp) {
	if rs.err == "" {
		n, self := o.n, int(o.n.id)
		if cau := n.sys.cau; cau != nil {
			cau.InstallVersioned(self, o.area, rs.data, rs.clock, rs.ver, rs.dep)
		} else {
			n.sys.coh.InstallCopy(self, o.area, rs.data, rs.clock)
			if rs.excl {
				n.sys.mes.InstallExclusive(self, o.area)
			}
		}
	}
	o.absorb(rs)
	o.finish()
}

// ---- Literal protocol continuations (Algorithms 1 and 2). Each Defer'd
// stage occupies the event slot where the old parked path resumed the
// process, and each one-way clock message is sent from the same slot it was
// sent from there. ----

// grant absorbs the internal lock grant and defers the per-op first stage.
//
//dsmlint:eventhandler
func (o *initOp) grant(rs *resp) {
	o.absorb(rs)
	o.n.k.Defer(o.stage1Fn)
}

// readClocks issues a get_clock/get_clock_W hop with the given continuation.
func (o *initOp) readClocks(cont func(*resp)) {
	o.issue(o.n.homeOf(o.area), network.KindClockRead, network.HeaderBytes, o.newReq(o.area), cont)
}

// putStage1 — Algorithm 1 after the lock: fetch the area clocks.
func (o *initOp) putStage1() { o.readClocks(o.putClocks1Fn) }

// putClocks1 holds V; the comparison itself runs in the next deferred slot.
//
//dsmlint:eventhandler
func (o *initOp) putClocks1(rs *resp) {
	o.absorb(rs)
	o.n.k.Defer(o.putStage2Fn)
}

// putStage2 compares clocks both ways (Algorithm 3), signals, and sends the
// data message.
func (o *initOp) putStage2() {
	n := o.n
	if core.CheckWrite(o.acc.Clock, o.v) {
		n.sys.signal(n, &core.Report{
			Detector:    n.sys.cfg.Detector.Name(),
			Area:        o.area.ID,
			Current:     o.acc,
			StoredClock: o.v,
		}, n.k.Now())
	}
	rr := o.newReq(o.area)
	rr.off, rr.data, rr.acc = o.off, o.data, o.acc
	o.issue(o.n.homeOf(o.area), network.KindPutReq,
		network.HeaderBytes+len(o.data)*memory.WordBytes, rr, o.putAckFn)
}

// putAck absorbs the data ack; an error short-circuits to the tail (which
// unlocks), success continues into update_clock_W.
//
//dsmlint:eventhandler
func (o *initOp) putAck(rs *resp) {
	o.absorb(rs)
	if o.errs != "" {
		o.finish()
		return
	}
	o.n.k.Defer(o.putStage3Fn)
}

// putStage3 — update_clock_W's re-fetch (Algorithm 5's get_clock).
func (o *initOp) putStage3() { o.readClocks(o.putClocksDiscFn) }

// putClocksDiscard absorbs a clock fetch whose values the algorithm ignores.
//
//dsmlint:eventhandler
func (o *initOp) putClocksDiscard(rs *resp) {
	o.absorb(rs)
	o.n.k.Defer(o.putStage4Fn)
}

// putStage4 folds the write into the state (put_clock apply) and starts the
// final idempotent update_clock fetch.
func (o *initOp) putStage4() {
	o.n.writeClockApply(o.area, o.acc)
	o.readClocks(o.putClocks3Fn)
}

// putClocks3 holds the final clocks; the tail writes them back and unlocks.
func (o *initOp) putClocks3(rs *resp) {
	o.absorb(rs)
	o.finish()
}

// getStage1 — Algorithm 2 after the lock: fetch the area clocks.
func (o *initOp) getStage1() { o.readClocks(o.getClocks1Fn) }

// getClocks1 holds W (kept for the tail's reads-from absorb edge).
//
//dsmlint:eventhandler
func (o *initOp) getClocks1(rs *resp) {
	o.absorb(rs)
	o.n.k.Defer(o.getStage2Fn)
}

// getStage2 compares the initiator clock against the write clock, signals,
// and sends the data request.
func (o *initOp) getStage2() {
	n := o.n
	if core.CheckRead(o.acc.Clock, o.w) {
		n.sys.signal(n, &core.Report{
			Detector:    n.sys.cfg.Detector.Name(),
			Area:        o.area.ID,
			Current:     o.acc,
			StoredClock: o.w,
		}, n.k.Now())
	}
	rr := o.newReq(o.area)
	rr.off, rr.count, rr.acc = o.off, o.count, o.acc
	o.issue(o.n.homeOf(o.area), network.KindGetReq, network.HeaderBytes, rr, o.getReplyFn)
}

// getReply absorbs the data; errors short-circuit to the tail.
//
//dsmlint:eventhandler
func (o *initOp) getReply(rs *resp) {
	o.absorb(rs)
	if o.errs != "" {
		o.finish()
		return
	}
	o.n.k.Defer(o.getStage3Fn)
}

// getStage3 — update_clock's fetch on the source area.
func (o *initOp) getStage3() { o.readClocks(o.getClocks2Fn) }

// getClocks2 absorbs the (ignored) clock fetch; the tail applies the access
// clock and unlocks.
func (o *initOp) getClocks2(rs *resp) {
	w := o.w // the reads-from edge uses the *first* fetch's W (Algorithm 2)
	o.absorb(rs)
	o.w = w
	o.finish()
}
