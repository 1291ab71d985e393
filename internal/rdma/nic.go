package rdma

import (
	"fmt"

	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// req is the payload of every NIC request message.
type req struct {
	id     uint64
	owner  int32 // pool shard that grabbed this struct
	origin network.NodeID
	area   memory.Area
	off    int // word offset within the area
	count  int
	data   []memory.Word // written payload: the parked initiator's NIC.wbuf (under faults, issue's private copy)
	acc    core.Access
	hasAcc bool // acc carries a clock (detection on)
	user   bool // user-level lock operation (observed, clock-carrying)
	// Literal-protocol clock operations:
	apply bool      // ClockWrite: fold acc into the area state (Algorithm 5)
	v, w  vclock.VC // ClockWrite raw: overwrite stored clocks
	// Atomics:
	op         AtomicOp
	arg1, arg2 memory.Word
	// Causal coherence: the sender's observation-clock snapshot (a fresh
	// copy, never aliased to live protocol state) — the writer's on a put,
	// the releaser's on a user-level unlock.
	obs vclock.VC
	// MESI: this invalidation is an exclusivity recall — downgrade and write
	// dirty data back instead of dropping the copy.
	recall bool
	// home is the NIC serving a lock request, set by handleLock for grantFn
	// (r.grantLock, bound once per struct and kept across pool round trips),
	// so a lock request queues behind the holder without a closure.
	home    *NIC
	grantFn func()
}

// copyFrom makes rr a copy of src but for its own owner shard and bound
// continuation (the retransmission template).
func (rr *req) copyFrom(src *req) {
	owner, grantFn := rr.owner, rr.grantFn
	*rr = *src
	rr.owner, rr.grantFn = owner, grantFn
}

// resp is the payload of every NIC response message.
type resp struct {
	id    uint64
	owner int32 // pool shard that grabbed this struct
	// data is the reply payload (nil: none), a view of buf — the payload
	// buffer the struct keeps across pool round trips.
	data  []memory.Word //dsmlint:payload
	buf   []memory.Word
	v, w  vclock.VC     // clock reads
	clock vclock.Masked // merged clock for the initiator to absorb
	err   string
	// Causal coherence: the committed write's area version (put/atomic acks)
	// or the area's current version (fetch replies), plus the area dependency
	// clock (a fresh copy owned by the receiver) on fetch replies and
	// user-level lock grants.
	ver uint64
	dep vclock.VC
	// MESI: the fetch reply grants the reader exclusivity (sole sharer).
	excl bool
}

// payload sizes the reply payload to n words of the struct's own buffer and
// returns it for the sender to fill.
//
//dsmlint:payload
func (rs *resp) payload(n int) []memory.Word {
	if rs.buf == nil || cap(rs.buf) < n { // never nil: nil data means "no payload"
		rs.buf = make([]memory.Word, n)
	}
	rs.data = rs.buf[:n]
	return rs.data
}

// NIC is one node's network interface. Remote operations addressed to this
// node are served inside its message handler — the owning process is never
// involved (OS bypass, §III-B).
type NIC struct {
	sys *System
	id  network.NodeID
	// k is the kernel that executes this node's events — the owning shard
	// of a multi-kernel run, or the run's single kernel.
	k *sim.Kernel
	// ps is the pool shard of that kernel: every pooled grab/release in
	// this NIC's execution context goes through it.
	ps *shardPools
	// pending tracks initiator-side operations awaiting responses. A node
	// runs one process, so only a handful of operations are ever in flight
	// at once: a tiny linear-scanned table beats a map on every round trip.
	pending []pendEntry
	// invalWait maps the id of every in-flight invalidation issued by this
	// (home) NIC to the homeOp whose round it belongs to; a late ack of a
	// drained round (fault.go) finds no id, rather than a recycled homeOp.
	invalWait map[uint64]*homeOp
	// wbuf holds the payload of the node's in-flight write: Put copies the
	// caller's (usually variadic) slice in, so that never escapes, and the
	// request aliases it — the home consumes the words before it replies.
	// word receives single-word results. One blocking process: one of each.
	wbuf []memory.Word
	word [1]memory.Word
	// locks is the per-area lock table, indexed by AreaID (dense: the
	// space is sealed before the run); entries materialise on first use.
	locks []*lockState
	// Coalesced fault watchdog (see fault.go): one armed deadline-scan event
	// covers every in-flight op of this NIC. wdFn is bound once at
	// EnableFaults so arming never allocates a closure.
	wdArmed bool
	wdAt    sim.Time
	wdFn    func()
	// UserHandler receives KindUser and KindBarrier messages for the
	// runtime layered above (e.g. barrier coordination).
	UserHandler func(m *network.Message)
}

// pendEntry is one in-flight request in a NIC's pending table: the
// initiator operation whose reply continuation runs in delivery-event
// context.
type pendEntry struct {
	id uint64
	op *initOp
}

// addPending registers an in-flight request.
func (n *NIC) addPending(id uint64, op *initOp) {
	n.pending = append(n.pending, pendEntry{id: id, op: op})
}

// findPending resolves a response id to its table index, or -1.
func (n *NIC) findPending(id uint64) int {
	for i := range n.pending {
		if n.pending[i].id == id {
			return i
		}
	}
	return -1
}

// dropPendingAt removes the table entry at index i.
func (n *NIC) dropPendingAt(i int) {
	last := len(n.pending) - 1
	n.pending[i] = n.pending[last]
	n.pending[last] = pendEntry{}
	n.pending = n.pending[:last]
}

// ID returns the node this NIC belongs to.
func (n *NIC) ID() network.NodeID { return n.id }

// Kernel returns the kernel that executes this node's events (the owning
// shard of a multi-kernel run, or the single kernel).
func (n *NIC) Kernel() *sim.Kernel { return n.k }

// GrabClock hands out a pooled clock buffer from this node's shard — for
// callers (the DSM runtime) that ship a clock snapshot through the system
// and have it released on the receiving side.
func (n *NIC) GrabClock() vclock.Masked { return n.ps.grabClock() }

// ReleaseClock returns an absorbed clock buffer to this node's shard pool.
// Callers must not retain the buffer afterwards.
func (n *NIC) ReleaseClock(c vclock.Masked) { n.ps.releaseClock(c) }

func (n *NIC) lockFor(a memory.AreaID) *lockState {
	l := n.locks[a]
	if l == nil {
		// Under faults a crash sweep may force-expire a tenure whose late
		// continuation still releases; lenient locks absorb that instead of
		// panicking.
		l = &lockState{lenient: n.sys.faultOn}
		n.locks[a] = l
	}
	return l
}

// handle is the NIC's delivery handler, invoked by the network layer inside
// the delivery event for each arriving message — the root of the
// event-context region on the home/receive side.
//
//dsmlint:eventhandler
func (n *NIC) handle(m *network.Message) {
	switch m.Kind {
	case network.KindPutAck, network.KindGetReply, network.KindFetchReply,
		network.KindClockReadResp, network.KindAtomicReply, network.KindLockGrant:
		r := m.Payload.(*resp)
		if r.err == nackErr {
			// A bounced request (dropped at a crashed destination): not a
			// reply — pull the op's deadline in so the watchdog acts now.
			n.nackPending(r)
			return
		}
		if r.err == lostErr {
			// A bounced reply (served, then dropped in transit): retry
			// idempotent ops now; fail atomics — the original applied.
			n.lostPending(r)
			return
		}
		i := n.findPending(r.id)
		if i < 0 {
			if n.sys.faultOn {
				// A duplicate reply: the retransmitted request and the
				// original both got through, and the first reply already
				// completed the op. Idempotence is exactly this absorption.
				n.ps.releaseClock(r.clock)
				n.ps.releaseResp(r)
				return
			}
			panic(fmt.Sprintf("rdma: node %d: orphan response %d", n.id, r.id))
		}
		// The reply continuation absorbs the resp right here in
		// delivery-event context; the process is woken only by the
		// operation's final hop.
		op := n.pending[i].op
		n.dropPendingAt(i)
		op.next(r)
	case network.KindPutReq:
		n.handlePut(m)
	case network.KindGetReq:
		n.handleGet(m)
	case network.KindFetchReq:
		n.handleFetch(m)
	case network.KindInval:
		n.handleInval(m)
	case network.KindInvalAck:
		n.handleInvalAck(m)
	case network.KindUpdate:
		// Causal memory: a home-fanned update. The payload is shared by the
		// whole fan-out and immutable; nothing to release.
		u := m.Payload.(*updateMsg)
		n.sys.cau.ApplyUpdate(int(n.id), u.area, u.off, u.data, u.ver, u.dep)
	case network.KindLockReq:
		n.handleLock(m)
	case network.KindUnlock:
		n.handleUnlock(m)
	case network.KindClockRead:
		n.handleClockRead(m)
	case network.KindClockWrite:
		n.handleClockWrite(m)
	case network.KindAtomicReq:
		n.handleAtomic(m)
	case network.KindUser, network.KindBarrier:
		if n.UserHandler == nil {
			panic(fmt.Sprintf("rdma: node %d: no user handler", n.id))
		}
		n.UserHandler(m)
	default:
		panic(fmt.Sprintf("rdma: node %d: unexpected kind %v", n.id, m.Kind))
	}
}

// parkReasons caches the "rdma <kind>" park labels so the per-operation
// wait loop never builds a string. Indexed by message kind.
var parkReasons = func() []string {
	labels := make([]string, int(network.KindUser)+1)
	for k := range labels {
		labels[k] = "rdma " + network.Kind(k).String()
	}
	return labels
}()

func parkReason(k network.Kind) string {
	if int(k) < len(parkReasons) {
		return parkReasons[k]
	}
	return "rdma " + k.String()
}

// wireArea converts a protocol area to the packet-header area tag: AreaID+1,
// keeping 0 for packets that are not area-addressed. The tag feeds the
// exploration layer's independence analysis only — it never changes routing,
// sizes or delivery behaviour.
func wireArea(a memory.Area) int { return int(a.ID) + 1 }

// oneWay grabs the request of a one-way message (no response expected) for
// the caller to fill in place; the home-side handler recycles it.
func (n *NIC) oneWay(area memory.Area) *req {
	rr := n.ps.grabReq()
	rr.origin, rr.area = n.id, area
	return rr
}

// send transmits a request built by oneWay.
func (n *NIC) send(dst network.NodeID, kind network.Kind, size int, rr *req) {
	n.sys.net.Send(&network.Message{Src: n.id, Dst: dst, Kind: kind, Size: size, Area: wireArea(rr.area), Payload: rr})
}

// reply sends rs — grabbed and filled in place by the caller, released by
// the initiator — back to the request's origin.
func (n *NIC) reply(r *req, kind network.Kind, size int, rs *resp) {
	rs.id = r.id
	n.sys.net.Send(&network.Message{Src: n.id, Dst: r.origin, Kind: kind, Size: size, Area: wireArea(r.area), Payload: rs})
}

// homeOp is a pooled home-side operation continuation: lock grant →
// occupancy delay → body → (invalidation round) → reply. Its continuation
// funcs are bound once when the struct is first created, so serving a
// request allocates no closures — at hundreds of thousands of operations
// per run the per-op closure chain was a measurable slice of both allocator
// and GC time.
type homeOp struct {
	n      *NIC
	r      *req
	kind   network.Kind // request kind (put/get/atomic/fetch)
	l      *lockState   // nil when locking is disabled
	owner  int32        // pool shard that grabbed this struct
	err    error
	absorb vclock.Masked
	old    memory.Word // atomic: previous stored value
	ver    uint64      // causal: the committed write's area version
	// The operation's one open invalidation round: acks outstanding, and
	// whether it is a MESI recall — whose ack may carry the owner's dirty
	// data, clears the exclusivity record and continues into occupy.
	invalLeft   int
	invalRecall bool

	grantFn  func() // o.grant, bound once
	runFn    func() // o.run, bound once
	finishFn func() // o.finish, bound once
	occupyFn func() // o.occupy, bound once (MESI recall continuation)
}

// updateMsg is a causal-memory update fanned from the home to every sharer
// after a committed write: one instance for the whole fan-out, not pooled
// (ARCHITECTURE.md, "Who owns the bytes"). The version gap rule makes
// updates loss-tolerant, and the drop hook passes unknown payloads through
// untouched.
type updateMsg struct {
	area memory.Area
	off  int
	data []memory.Word
	ver  uint64
	dep  vclock.VC
}

// startHomeOp begins serving a data request at its home: acquire the area
// lock (if enabled), then model the memory occupancy, then run the body.
//
//dsmlint:eventhandler
func (n *NIC) startHomeOp(m *network.Message, kind network.Kind) {
	r := m.Payload.(*req)
	o := n.ps.grabOp()
	o.n, o.r, o.kind = n, r, kind
	if !n.sys.cfg.LocksEnabled {
		o.l = nil
		o.grant()
		return
	}
	o.l = n.lockFor(r.area.ID)
	o.l.acquire(r.acc.Proc, o.grantFn, o)
}

// grant runs once the area lock is held. Under MESI the home first recalls a
// remote exclusive owner — its silently modified line is the area's current
// data, so every home operation (read or write) must see it written back
// before touching home memory. The area lock stays held across the recall,
// so no fetch can hand out a new copy mid-recall.
func (o *homeOp) grant() {
	n := o.n
	if mes := n.sys.mes; mes != nil {
		if owner := mes.ExclusiveOwner(int(o.r.origin), o.r.area); owner >= 0 {
			mes.CountRecall(int(n.id))
			o.invalLeft, o.invalRecall = 1, true
			o.sendInval(owner, true)
			return
		}
	}
	o.occupy()
}

// sendInval sends node one invalidation (or recall) of the operation's round.
func (o *homeOp) sendInval(node int, recall bool) {
	n := o.n
	rr := n.ps.grabReq()
	rr.id, rr.origin, rr.area, rr.recall = n.ps.nextReq(), n.id, o.r.area, recall
	n.invalWait[rr.id] = o
	n.sys.net.Send(&network.Message{Src: n.id, Dst: network.NodeID(node),
		Kind: network.KindInval, Size: network.HeaderBytes, Area: wireArea(rr.area), Payload: rr})
}

// invalDone continues the operation once its invalidation round is complete.
func (o *homeOp) invalDone() {
	if o.invalRecall {
		o.invalRecall = false
		o.occupy()
		return
	}
	o.finish()
}

// occupy charges the occupancy window for the words this operation moves,
// then runs the body.
func (o *homeOp) occupy() {
	var words int
	switch o.kind {
	case network.KindPutReq:
		words = len(o.r.data)
	case network.KindGetReq:
		words = o.r.count
	case network.KindAtomicReq:
		words = 1
	default: // fetch moves the whole area (the coherence unit)
		words = o.r.area.Len
	}
	o.n.k.Schedule(o.n.sys.occupancy(words), o.runFn)
}

// release drops the area lock if one is held.
func (o *homeOp) release() {
	if o.l != nil {
		o.l.release()
	}
}

// run is the operation body, at the end of the occupancy window.
func (o *homeOp) run() {
	n, r := o.n, o.r
	k := n.k
	switch o.kind {
	case network.KindPutReq:
		o.err = checkAreaRange(r.area, r.off, len(r.data))
		if o.err == nil {
			// The declared home's exported segment, not the serving NIC's
			// memory: after a crash the successor serves remote operations
			// against the registered region, which outlives its owner.
			o.err = n.sys.space.Node(r.area.Home).WritePublic(r.area.Off+r.off, r.data)
		}
		o.observeAndCheck(r.off, len(r.data), k.Now())
		o.finishWrite()
	case network.KindAtomicReq:
		node := n.sys.space.Node(r.area.Home)
		var old [1]memory.Word
		o.err = checkAreaRange(r.area, r.off, 1)
		if o.err == nil {
			o.err = node.ReadPublic(r.area.Off+r.off, old[:])
		}
		if o.err == nil {
			o.old = old[0]
			o.err = node.WritePublic(r.area.Off+r.off, []memory.Word{r.op.Apply(old[0], r.arg1, r.arg2)})
		}
		o.observeAndCheck(r.off, 1, k.Now())
		o.finishWrite()
	case network.KindGetReq:
		// The reply transfers exactly the requested span.
		o.serveRead(r.off, r.count, network.KindGetReply)
	default: // KindFetchReq: read miss under a caching protocol
		// The reply transfers the whole area (the coherence unit).
		o.serveRead(0, r.area.Len, network.KindFetchReply)
	}
}

// serveRead is the shared read-serve tail of the get and fetch bodies: read
// [readOff, readOff+readLen) of the area, run the observer/detector on the
// *logical* access span [r.off, r.off+r.count), apply the protocol hook,
// release the lock and reply with replyKind. Errors reply with nil data but
// a size computed before the data is dropped, matching the wire model (the
// request was for that many words).
func (o *homeOp) serveRead(readOff, readLen int, replyKind network.Kind) {
	n, r := o.n, o.r
	rs := n.ps.grabResp()
	o.err = checkAreaRange(r.area, r.off, r.count)
	if o.err == nil {
		o.err = n.sys.space.Node(r.area.Home).ReadPublic(r.area.Off+readOff, rs.payload(readLen))
	}
	o.observeAndCheck(r.off, r.count, n.k.Now())
	rs.clock = o.absorb
	if o.err == nil && replyKind == network.KindFetchReply {
		// A served fetch registers the reader as a sharer. Causal replies
		// carry the area's version and dependency clock; a MESI reply may
		// grant exclusivity when the reader is the sole sharer.
		n.sys.coh.AddSharer(int(r.origin), r.area)
		n.sys.countFetch(int(n.id))
		if cau := n.sys.cau; cau != nil {
			rs.ver, rs.dep = cau.ReadVersion(r.area)
		} else if mes := n.sys.mes; mes != nil {
			rs.excl = mes.GrantExclusive(int(r.origin), r.area)
		}
	}
	o.release()
	size := network.HeaderBytes + len(rs.data)*memory.WordBytes +
		n.sys.ClockBytes(o.absorb) + n.sys.ClockBytes(vclock.Dense(rs.dep))
	if rs.ver != 0 {
		size += 8
	}
	if o.err != nil {
		rs.data = nil
	}
	rs.err = errString(o.err)
	n.reply(r, replyKind, size, rs)
	if n.sys.faultOn {
		// Request ownership is home-side under faults: the initiator cannot
		// prove this reply arrives, so it can no longer release the req.
		n.ps.releaseReq(r)
	}
	n.ps.releaseOp(o)
}

// observeAndCheck notifies the trace observer and runs the detector for the
// access span, filling o.absorb.
func (o *homeOp) observeAndCheck(off, count int, at sim.Time) {
	if o.err != nil {
		return
	}
	n, r := o.n, o.r
	if n.sys.cfg.Observer != nil {
		n.sys.cfg.Observer.Access(r.acc, r.area, off, count, at)
	}
	if n.sys.DetectionOn() && r.hasAcc {
		acc := r.acc
		acc.Time = at
		o.absorb = n.sys.checkAccess(n, acc, r.area, off, count, at)
	}
}

// finishWrite completes a home-side write or atomic: under write-invalidate
// it first orders every other copy of the area dropped and waits for the
// acknowledgements — the area lock stays held, so no fetch can revalidate a
// copy mid-round — then releases the lock and sends the completion. With no
// copies outstanding (always, under write-update) it completes immediately.
func (o *homeOp) finishWrite() {
	n, r := o.n, o.r
	if o.err == nil {
		if cau := n.sys.cau; cau != nil {
			// Causal memory: the write completes at the home without replica
			// acknowledgements. Commit the version, fold the writer's shipped
			// observation clock into the area's dependency clock, and fan the
			// written words to every other sharer as one shared immutable
			// update message.
			off, count := r.off, len(r.data)
			if o.kind == network.KindAtomicReq {
				count = 1
			}
			ver, dep, sharers := cau.PublishWrite(int(r.origin), r.area, r.obs)
			o.ver = ver
			if len(sharers) > 0 {
				data := make([]memory.Word, count)
				_ = n.sys.space.Node(r.area.Home).ReadPublic(r.area.Off+off, data)
				u := &updateMsg{area: r.area, off: off, data: data, ver: ver, dep: dep}
				size := network.HeaderBytes + count*memory.WordBytes + 8 + n.sys.ClockBytes(vclock.Dense(dep))
				for _, node := range sharers {
					n.sys.net.Send(&network.Message{Src: n.id, Dst: network.NodeID(node),
						Kind: network.KindUpdate, Size: size, Area: wireArea(r.area), Payload: u})
				}
			}
		} else if inv := n.sys.coh.Invalidees(r.acc.Proc, r.area); len(inv) > 0 {
			o.invalLeft = len(inv)
			for _, node := range inv {
				o.sendInval(node, false)
			}
			return
		}
	}
	o.finish()
}

// finish releases the lock and sends the write's completion reply. Under
// MESI the completed write's invalidation round left the writer as the only
// possible sharer, so the commit also promotes it to exclusive owner (the
// home→writer FIFO guarantees the ack — which upgrades the writer's own
// copy — lands before any later recall).
func (o *homeOp) finish() {
	n, r := o.n, o.r
	if o.err == nil {
		if mes := n.sys.mes; mes != nil {
			mes.PromoteSoleSharer(int(r.origin), r.area)
		}
	}
	o.release()
	size := network.HeaderBytes + n.sys.ClockBytes(o.absorb)
	if o.ver != 0 {
		size += 8
	}
	rs := n.ps.grabResp()
	rs.clock, rs.ver, rs.err = o.absorb, o.ver, errString(o.err)
	if o.kind == network.KindAtomicReq {
		size += memory.WordBytes
		rs.payload(1)[0] = o.old
		n.reply(r, network.KindAtomicReply, size, rs)
	} else {
		n.reply(r, network.KindPutAck, size, rs)
	}
	if n.sys.faultOn {
		n.ps.releaseReq(r) // home-side request ownership; see serveRead
	}
	n.ps.releaseOp(o)
}

// ---- Home-side handlers (the one-sided target path) ----

// checkAreaRange validates that [off, off+count) falls inside the area —
// remote operations must not spill into a neighbouring variable.
func checkAreaRange(a memory.Area, off, count int) error {
	if off < 0 || count < 0 || off+count > a.Len {
		return fmt.Errorf("access [%d,%d) outside area %q of %d words", off, off+count, a.Name, a.Len)
	}
	return nil
}

//dsmlint:eventhandler
func (n *NIC) handlePut(m *network.Message) {
	n.startHomeOp(m, network.KindPutReq)
}

// handleFetch serves a write-invalidate read miss: the whole area (the
// coherence unit) is transferred and the reader registered as a sharer,
// with the area's write clock piggybacked for the reader's copy. Detection
// and tracing see the logical access span [off, off+count), not the
// transfer span — the fetch is transport, the access is what the program
// did.
//
//dsmlint:eventhandler
func (n *NIC) handleFetch(m *network.Message) {
	n.startHomeOp(m, network.KindFetchReq)
}

// handleInval drops this node's copy of the area and acknowledges — or, for
// a MESI recall, downgrades the line to Shared and ships its dirty data back
// with the acknowledgement. It never blocks and takes no locks, so
// invalidation rounds cannot deadlock.
func (n *NIC) handleInval(m *network.Message) {
	r := m.Payload.(*req)
	rs := n.ps.grabResp()
	size := network.HeaderBytes
	if r.recall {
		data, dirty := n.sys.mes.Downgrade(int(n.id), r.area)
		if dirty {
			copy(rs.payload(len(data)), data)
			size += len(data) * memory.WordBytes
		}
	} else {
		n.sys.coh.DropCopy(int(n.id), r.area)
	}
	n.reply(r, network.KindInvalAck, size, rs)
	n.ps.releaseReq(r) // invalidations are one-way reqs: the handler owns it
}

// handleInvalAck joins one acknowledgement of an invalidation round; the
// last one completes the write that started the round. A recall ack may
// carry the downgraded owner's dirty writeback, patched into the area before
// the waiting operation's body runs.
func (n *NIC) handleInvalAck(m *network.Message) {
	r := m.Payload.(*resp)
	if o, ok := n.invalWait[r.id]; ok && o.invalRecall && r.data != nil {
		_ = n.sys.space.Node(o.r.area.Home).WritePublic(o.r.area.Off, r.data)
	}
	n.ackInval(r.id)
	n.ps.releaseResp(r)
}

//dsmlint:eventhandler
func (n *NIC) handleGet(m *network.Message) {
	n.startHomeOp(m, network.KindGetReq)
}

func (n *NIC) handleLock(m *network.Message) {
	r := m.Payload.(*req)
	l := n.lockFor(r.area.ID)
	if n.sys.fArm {
		if n.sys.net.NodeFaulted(n.ps.idx, r.origin) {
			// The requester crashed while this request was in flight;
			// granting would wedge the lock on a dead owner forever.
			n.ps.releaseReq(r)
			return
		}
		if l.lastGrant == r.id {
			// Duplicate of an already-granted request (ids start at 1, so no
			// false hit): the original grant was lost, or a retry was still
			// in flight when a grant arrived. Re-reply without a second
			// acquisition — a second tenure for a request that was already
			// served would strand the lock forever. While the tenure is
			// still this requester's, the release clock rides again (the
			// slot kept it — copy semantics under fArm below — so the
			// happens-before edge survives the retry); a stale duplicate
			// after release gets a bare grant the initiator absorbs as an
			// orphan.
			rs := n.ps.grabResp()
			if r.user && l.held && l.owner == r.acc.Proc && !l.relClock.IsNil() {
				rs.clock = l.relClock.CopyInto(n.ps.grabClock())
			}
			if r.user && l.held && l.owner == r.acc.Proc && l.relObs != nil {
				rs.dep = l.relObs.Copy()
			}
			n.reply(r, network.KindLockGrant, n.grantBytes(rs), rs)
			n.ps.releaseReq(r)
			return
		}
	}
	r.home = n
	if r.grantFn == nil {
		r.grantFn = r.grantLock
	}
	l.acquire(r.acc.Proc, r.grantFn, r)
}

// grantLock is a lock request's continuation, run at its home NIC once the
// area lock is held for the requester.
func (r *req) grantLock() {
	n := r.home
	l := n.lockFor(r.area.ID)
	// The lock stays held until an Unlock message arrives. User-level
	// grants carry the previous releaser's clock (release→acquire edge),
	// copied into a pooled buffer the acquirer releases after absorbing.
	rs := n.ps.grabResp()
	if r.user && !l.relClock.IsNil() {
		if n.sys.fArm {
			// Copy semantics under hostile schedules: the slot must
			// survive a lost grant so handleLock's retransmission path can
			// re-ship the release clock (the lost reply's buffer was
			// reclaimed with the message).
			rs.clock = l.relClock.CopyInto(n.ps.grabClock())
		} else {
			// Hand the release clock's buffer to the grant outright: each
			// user-level release is consumed by exactly the next
			// user-level grant (the lock is held in between), so the slot
			// would be overwritten before it is read again — and the
			// acquirer returns the buffer to the pool after absorbing,
			// completing the unlock → slot → grant → pool lifecycle
			// without a copy. (A re-entrant re-acquire no longer re-ships
			// the clock it already absorbed — a no-op merge either way.)
			rs.clock = l.relClock
			l.relClock = vclock.Masked{}
		}
	}
	if r.user && l.relObs != nil {
		// Causal coherence: the grant carries the accumulated releaser
		// observation clock (a fresh copy the acquirer owns outright).
		rs.dep = l.relObs.Copy()
	}
	if r.user && n.sys.cfg.Observer != nil {
		n.sys.cfg.Observer.LockAcq(r.acc.Proc, r.area, n.k.Now())
	}
	if n.sys.fArm {
		l.msgHeld = true
		l.lastGrant = r.id
	}
	n.reply(r, network.KindLockGrant, n.grantBytes(rs), rs)
	if n.sys.faultOn {
		n.ps.releaseReq(r) // home-side request ownership; see serveRead
	}
}

// grantBytes is the wire size of a lock grant: the header, the release
// clock and the causal dependency clock it carries.
func (n *NIC) grantBytes(rs *resp) int {
	return network.HeaderBytes + n.sys.ClockBytes(rs.clock) + n.sys.ClockBytes(vclock.Dense(rs.dep))
}

func (n *NIC) handleUnlock(m *network.Message) {
	r := m.Payload.(*req)
	l := n.lockFor(r.area.ID)
	if r.user {
		if r.acc.Clock != nil {
			// The release clock arrived in a pooled buffer owned by this
			// message; adopt it as the lock's release-clock slot outright
			// and recycle the previous slot — a swap instead of a copy.
			old := l.relClock
			l.relClock = vclock.Masked{V: r.acc.Clock, M: r.acc.ClockNZ}
			n.ps.releaseClock(old)
		}
		if r.obs != nil {
			// Causal coherence: fold the releaser's observation snapshot
			// into the lock's accumulated slot (the snapshot is a fresh
			// copy owned by this message; adopt it when the slot is empty).
			if l.relObs == nil {
				l.relObs = r.obs
			} else {
				l.relObs.Merge(r.obs)
			}
		}
		if n.sys.cfg.Observer != nil {
			n.sys.cfg.Observer.LockRel(r.acc.Proc, r.area, n.k.Now())
		}
	}
	l.release()
	n.ps.releaseReq(r) // unlock is one-way: the handler owns the req
}

func (n *NIC) handleClockRead(m *network.Message) {
	r := m.Payload.(*req)
	rs := n.ps.grabResp()
	size := network.HeaderBytes
	if ca, ok := n.sys.stateFor(r.area, 0).(core.ClockAccessor); ok {
		rs.v, rs.w = ca.Clocks()
		size += n.sys.ClockBytes(vclock.Dense(rs.v)) + n.sys.ClockBytes(vclock.Dense(rs.w))
	} else {
		rs.err = "detector has no clocks"
	}
	n.reply(r, network.KindClockReadResp, size, rs)
	if n.sys.faultOn {
		n.ps.releaseReq(r) // home-side request ownership; see serveRead
	}
}

func (n *NIC) handleClockWrite(m *network.Message) {
	r := m.Payload.(*req)
	defer n.ps.releaseReq(r) // clock writes are one-way: the handler owns the req
	st := n.sys.stateFor(r.area, 0)
	if r.apply {
		// Fold the access into the state exactly as the piggyback path
		// would; the initiator already performed (and signalled) the check
		// under the lock, so the verdict here is identical and dropped.
		acc := r.acc
		acc.Time = n.k.Now()
		_, clk := st.OnAccess(acc, int(n.id), n.ps.grabClock())
		n.ps.releaseClock(clk) // the literal protocol ignores the merged clock here
		return
	}
	if ca, ok := st.(core.ClockAccessor); ok {
		ca.SetClocks(r.v, r.w)
	}
}

//dsmlint:eventhandler
func (n *NIC) handleAtomic(m *network.Message) {
	n.startHomeOp(m, network.KindAtomicReq)
}

// SendUser transmits an application-level message (used by the runtime for
// barriers and user messaging); it is counted but carries no RDMA payload.
func (n *NIC) SendUser(dst network.NodeID, kind network.Kind, size int, payload any) {
	n.sys.net.Send(&network.Message{Src: n.id, Dst: dst, Kind: kind, Size: size, Payload: payload})
}
