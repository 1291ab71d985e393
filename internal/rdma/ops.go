package rdma

import (
	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// The initiator-side operations run in continuation-passing style (see
// initOp in init_op.go): the process issues the first request, parks once,
// and every intermediate protocol hop — lock grants, literal-protocol clock
// fetches, data replies — completes through pooled continuations in event
// context. The tail of each operation (the code below each await) runs on
// the process after the single wakeup.

// Put writes data into area at word offset off (one-sided remote write,
// Fig. 2 left... right arrow). acc carries the initiator's identity and
// ticked clock. It returns the clock the initiator should absorb (nil when
// none) and blocks p until completion.
func (n *NIC) Put(p *sim.Proc, area memory.Area, off int, vals []memory.Word, acc core.Access) (vclock.Masked, error) {
	acc.Area = area.ID
	// Work on the NIC's own copy (see NIC.wbuf), which the request aliases
	// and the tail patches from; vals is not used again.
	n.wbuf = append(n.wbuf[:0], vals...)
	data := n.wbuf
	if n.sys.cfg.Protocol == ProtocolLiteral && n.sys.DetectionOn() {
		return n.putLiteral(p, area, off, data, acc)
	}
	self := int(n.id)
	if mes := n.sys.mes; mes != nil && mes.HoldsExclusive(self, area) {
		// MESI silent write: the sole valid copy is local, so the write
		// upgrades it in place (E→M) with zero messages. The commit happens
		// before the occupancy sleep — a recall arriving mid-sleep downgrades
		// a line that already holds this write. Like cached reads, silent
		// writes never reach the home's online detector (the coverage
		// trade-off of serving accesses locally).
		if err := checkAreaRange(area, off, len(data)); err != nil {
			return vclock.Masked{}, err
		}
		mes.SilentWrite(self, area, off, data, vclock.Masked{})
		p.Sleep(n.sys.occupancy(len(data)))
		if n.sys.cfg.Observer != nil {
			n.sys.cfg.Observer.Access(acc, area, off, len(data), p.Now())
		}
		return vclock.Masked{}, nil
	}
	size := network.HeaderBytes + len(data)*memory.WordBytes
	hasAcc := n.sys.DetectionOn()
	if hasAcc {
		size += n.sys.ClockBytes(accClock(acc))
	}
	var obs vclock.VC
	if cau := n.sys.cau; cau != nil {
		// Causal coherence: the request ships the writer's observation
		// snapshot; the home folds it into the area's dependency clock.
		obs = cau.ObsSnapshot(self)
		size += n.sys.ClockBytes(vclock.Dense(obs))
	}
	o := n.sys.grabInit(n, p)
	rr := o.newReq(area)
	rr.off, rr.data, rr.acc, rr.hasAcc, rr.obs = off, data, acc, hasAcc, obs
	o.issue(n.homeOf(area), network.KindPutReq, size, rr, o.captureFn)
	o.await()
	clock, ver, err := o.clock, o.ver, o.err()
	releaseInit(n.ps, o)
	if err != nil {
		n.ps.releaseClock(clock)
		return vclock.Masked{}, err
	}
	// The writer's own copy absorbs the write, stamped with the merged clock
	// the ack carried — the area's new write clock. Under write-invalidate
	// every other copy is gone by now; under causal the patch advances the
	// copy to the committed version (or invalidates it on a version gap);
	// under MESI it leaves the writer's surviving copy exclusive.
	if cau := n.sys.cau; cau != nil {
		cau.NoteWriteAck(self, area, ver)
		cau.PatchVersioned(self, area, off, data, clock, ver)
	} else {
		n.sys.coh.PatchCopy(self, area, off, data, clock)
	}
	if n.sys.cfg.AbsorbOnPutAck {
		return clock, nil
	}
	n.ps.releaseClock(clock)
	return vclock.Masked{}, nil
}

// Get reads count words from area at word offset off (one-sided remote
// read). It returns the data and the clock to absorb (the area's write
// clock when AbsorbOnGetReply is set). Under write-invalidate coherence the
// read is served from a valid local copy when one exists and otherwise
// fetches (and caches) the whole area. The returned slice is the caller's.
func (n *NIC) Get(p *sim.Proc, area memory.Area, off, count int, acc core.Access) ([]memory.Word, vclock.Masked, error) {
	return n.get(p, area, off, count, acc, nil)
}

// GetWord is Get of a single word with no result slice to allocate.
func (n *NIC) GetWord(p *sim.Proc, area memory.Area, off int, acc core.Access) (memory.Word, vclock.Masked, error) {
	data, clock, err := n.get(p, area, off, 1, acc, n.word[:])
	if err != nil {
		return 0, clock, err
	}
	return data[0], clock, nil
}

// deliver copies src into dst, or into a fresh slice when dst is nil.
func deliver(dst, src []memory.Word) []memory.Word {
	if dst == nil {
		dst = make([]memory.Word, len(src))
	}
	return dst[:copy(dst, src)]
}

// get reads count words into dst, or into a fresh slice when dst is nil.
func (n *NIC) get(p *sim.Proc, area memory.Area, off, count int, acc core.Access, dst []memory.Word) ([]memory.Word, vclock.Masked, error) {
	acc.Area = area.ID
	if n.sys.cfg.Coherence.CachesRemoteReads() {
		return n.getInvalidate(p, area, off, count, &acc, dst)
	}
	if n.sys.cfg.Protocol == ProtocolLiteral && n.sys.DetectionOn() {
		return n.getLiteral(p, area, off, count, acc, dst)
	}
	return n.getRemote(p, n.homeOf(area), network.KindGetReq, area, off, count, &acc, dst)
}

// getRemote is the one-round-trip read: a get served by home, or under a
// caching protocol the fetch of a read miss, whose reply continuation also
// installs the copy.
func (n *NIC) getRemote(p *sim.Proc, home network.NodeID, kind network.Kind, area memory.Area, off, count int, acc *core.Access, dst []memory.Word) ([]memory.Word, vclock.Masked, error) {
	size := network.HeaderBytes
	hasAcc := n.sys.DetectionOn()
	if hasAcc {
		size += n.sys.ClockBytes(accClock(*acc))
	}
	o := n.sys.grabInit(n, p)
	o.want, o.into = count, dst
	cont := o.captureFn
	if kind == network.KindFetchReq {
		// The reply carries the whole area; the caller's span starts at off.
		o.area, o.skip, cont = area, off, o.fetchCaptureFn
	}
	rr := o.newReq(area)
	rr.off, rr.count, rr.acc, rr.hasAcc = off, count, *acc, hasAcc
	o.issue(home, kind, size, rr, cont)
	o.await()
	data, clock, err := o.outData, o.clock, o.err()
	releaseInit(n.ps, o)
	if err != nil {
		n.ps.releaseClock(clock)
		return nil, vclock.Masked{}, err
	}
	if n.sys.cfg.AbsorbOnGetReply {
		return data, clock, nil
	}
	n.ps.releaseClock(clock)
	return data, vclock.Masked{}, nil
}

// FetchAdd atomically adds delta to the word at (area, off) and returns the
// previous value. The operation counts as a write for detection.
func (n *NIC) FetchAdd(p *sim.Proc, area memory.Area, off int, delta memory.Word, acc core.Access) (memory.Word, vclock.Masked, error) {
	return n.atomic(p, area, off, AtomicFetchAdd, delta, 0, acc)
}

// CompareAndSwap atomically replaces the word at (area, off) with repl when
// it equals expect; it returns the previous value (swap happened iff
// old == expect).
func (n *NIC) CompareAndSwap(p *sim.Proc, area memory.Area, off int, expect, repl memory.Word, acc core.Access) (memory.Word, vclock.Masked, error) {
	return n.atomic(p, area, off, AtomicCAS, expect, repl, acc)
}

func (n *NIC) atomic(p *sim.Proc, area memory.Area, off int, op AtomicOp, a1, a2 memory.Word, acc core.Access) (memory.Word, vclock.Masked, error) {
	acc.Area = area.ID
	self := int(n.id)
	if mes := n.sys.mes; mes != nil && mes.HoldsExclusive(self, area) {
		// MESI silent atomic: exclusivity guarantees no other valid copy
		// exists and every foreign home operation recalls this owner first,
		// so the read-modify-write is atomic at the silent-write instant
		// (check and commit happen without yielding).
		if err := checkAreaRange(area, off, 1); err != nil {
			return 0, vclock.Masked{}, err
		}
		cur, _, ok := n.sys.coh.CachedRead(self, area, off, 1)
		if !ok {
			panic("rdma: exclusive line refused a cached read")
		}
		old := cur[0]
		n.wbuf = append(n.wbuf[:0], op.Apply(old, a1, a2))
		mes.SilentWrite(self, area, off, n.wbuf, vclock.Masked{})
		p.Sleep(n.sys.occupancy(1))
		if n.sys.cfg.Observer != nil {
			n.sys.cfg.Observer.Access(acc, area, off, 1, p.Now())
		}
		return old, vclock.Masked{}, nil
	}
	size := network.HeaderBytes + 2*memory.WordBytes
	hasAcc := n.sys.DetectionOn()
	if hasAcc {
		size += n.sys.ClockBytes(accClock(acc))
	}
	var obs vclock.VC
	if cau := n.sys.cau; cau != nil {
		obs = cau.ObsSnapshot(self)
		size += n.sys.ClockBytes(vclock.Dense(obs))
	}
	o := n.sys.grabInit(n, p)
	o.into = n.word[:]
	rr := o.newReq(area)
	rr.off, rr.op, rr.arg1, rr.arg2 = off, op, a1, a2
	rr.acc, rr.hasAcc, rr.obs = acc, hasAcc, obs
	o.issue(n.homeOf(area), network.KindAtomicReq, size, rr, o.captureFn)
	o.await()
	clock, ver, err := o.clock, o.ver, o.err()
	var old memory.Word
	if len(o.outData) > 0 {
		old = o.outData[0]
	}
	releaseInit(n.ps, o)
	if err != nil {
		n.ps.releaseClock(clock)
		return 0, vclock.Masked{}, err
	}
	if n.sys.cfg.Coherence.CachesRemoteReads() {
		// Fold the atomic's outcome into the initiator's own copy (a failed
		// CAS rewrites the old value — the write clock still advances,
		// because the home counted the atomic as a write either way).
		n.wbuf = append(n.wbuf[:0], op.Apply(old, a1, a2))
		if cau := n.sys.cau; cau != nil {
			cau.NoteWriteAck(self, area, ver)
			cau.PatchVersioned(self, area, off, n.wbuf, clock, ver)
		} else {
			n.sys.coh.PatchCopy(self, area, off, n.wbuf, clock)
		}
	}
	var absorb vclock.Masked
	if n.sys.cfg.AbsorbOnPutAck {
		absorb = clock
	} else {
		n.ps.releaseClock(clock)
	}
	return old, absorb, nil
}

// getInvalidate is the write-invalidate read path: home-local reads and
// cache hits are served without messages (modelling a plain load from
// local memory — which also means the online detector at the home never
// sees a cache hit, the coverage trade-off E-T12 measures); a miss fetches
// and caches the whole area with the write clock piggybacked on the reply.
func (n *NIC) getInvalidate(p *sim.Proc, area memory.Area, off, count int, acc *core.Access, dst []memory.Word) ([]memory.Word, vclock.Masked, error) {
	self := int(n.id)
	if int(n.homeOf(area)) == self && n.sys.cfg.Coherence.ServesHomeReadsLocally() {
		if mes := n.sys.mes; mes != nil && mes.ExclusiveOwner(self, area) >= 0 {
			// MESI: a remote owner may hold silently modified data, so home
			// memory cannot be trusted. A plain get addressed to this node
			// itself runs the normal home path — lock, recall (the owner's
			// dirty data is written back first), occupancy, detection — and
			// installs no copy: the home reads its own memory.
			return n.getRemote(p, n.id, network.KindGetReq, area, off, count, acc, dst)
		}
		// The home copy is by definition valid, and the detection state is
		// resident: the access is checked without any message. (After a
		// failover the successor serves its inherited areas the same way,
		// against the declared home's exported segment.)
		if err := checkAreaRange(area, off, count); err != nil {
			return nil, vclock.Masked{}, err
		}
		data := dst
		if data == nil {
			data = make([]memory.Word, count)
		}
		if err := n.sys.space.Node(area.Home).ReadPublic(area.Off+off, data); err != nil {
			return nil, vclock.Masked{}, err
		}
		p.Sleep(n.sys.occupancy(count))
		now := p.Now()
		if n.sys.cfg.Observer != nil {
			n.sys.cfg.Observer.Access(*acc, area, off, count, now)
		}
		n.sys.countHomeRead(int(n.id))
		if cau := n.sys.cau; cau != nil {
			// The home read observes the area at its current version; the
			// reader inherits its dependency clock.
			cau.NoteHomeRead(self, area)
		}
		var absorb vclock.Masked
		if n.sys.DetectionOn() {
			acc.Time = now
			absorb = n.sys.checkAccess(n, *acc, area, off, count, now)
		}
		if n.sys.cfg.AbsorbOnGetReply {
			return data, absorb, nil
		}
		n.ps.releaseClock(absorb)
		return data, vclock.Masked{}, nil
	}
	if data, w, ok := n.sys.coh.CachedRead(self, area, off, count); ok {
		if dst != nil { // otherwise CachedRead's fresh slice is the caller's to keep
			data = deliver(dst, data)
		}
		p.Sleep(n.sys.occupancy(count))
		now := p.Now()
		if n.sys.cfg.Observer != nil {
			n.sys.cfg.Observer.Access(*acc, area, off, count, now)
		}
		var absorb vclock.Masked
		if !w.IsNil() && n.sys.cfg.AbsorbOnGetReply {
			// The copy's write clock is exactly the area's current write
			// clock — a valid copy means no write has committed since the
			// fetch — so the hit gets the same reads-from edge a remote
			// read would.
			absorb = w.CopyInto(n.ps.grabClock())
		}
		return data, absorb, nil
	}
	// Miss: fetch the whole area (the coherence unit) from the home. The copy
	// is installed by fetchCapture in the reply's delivery slot — not here,
	// after the wakeup — so a same-instant invalidation ordered after the
	// reply finds the copy present and drops it (see fetchCapture).
	return n.getRemote(p, n.homeOf(area), network.KindFetchReq, area, off, count, acc, dst)
}

// LockArea acquires the NIC lock of the area for proc (a user-level lock;
// the same lock the NIC uses internally, so user critical sections exclude
// remote operations on the area). The returned clock, when non-nil, is the
// previous releaser's clock: absorbing it gives the acquirer the
// release→acquire happens-before edge. The error is non-nil only under a
// hostile fault schedule (ErrUnreachable after the retry budget).
func (n *NIC) LockArea(p *sim.Proc, area memory.Area, proc int) (vclock.Masked, error) {
	o := n.sys.grabInit(n, p)
	rr := o.newReq(area)
	rr.acc.Proc, rr.user = proc, true
	o.issue(n.homeOf(area), network.KindLockReq, network.HeaderBytes, rr, o.captureFn)
	o.await()
	clock, dep, err := o.clock, o.dep, o.err()
	releaseInit(n.ps, o)
	if err != nil {
		n.ps.releaseClock(clock)
		return vclock.Masked{}, err
	}
	if cau := n.sys.cau; cau != nil && dep != nil {
		// Causal coherence: inherit the releasers' observation clock — the
		// acquire edge that makes writes published before the release
		// visible inside the critical section.
		cau.MergeObs(int(n.id), dep)
	}
	return clock, nil
}

// UnlockArea releases the area lock, carrying the releaser's clock rel for
// the next acquirer (one-way; FIFO links guarantee it cannot overtake the
// holder's earlier traffic to the home).
func (n *NIC) UnlockArea(area memory.Area, proc int, rel vclock.Masked) {
	size := network.HeaderBytes + n.sys.ClockBytes(rel)
	var obs vclock.VC
	if cau := n.sys.cau; cau != nil {
		// Causal coherence: ship the releaser's observation clock so the
		// next acquirer inherits it (release half of the acquire edge).
		obs = cau.ObsSnapshot(int(n.id))
		size += n.sys.ClockBytes(vclock.Dense(obs))
	}
	rr := n.oneWay(area)
	rr.acc.Proc, rr.acc.Clock, rr.acc.ClockNZ = proc, rel.V, rel.M
	rr.user, rr.obs = true, obs
	n.send(n.homeOf(area), network.KindUnlock, size, rr)
}

// CausalObs returns a fresh copy of this node's causal observation clock,
// or nil unless the run uses causal coherence. The DSM runtime ships it with
// barrier arrivals, extending the release→acquire causality transport of
// locks to collective synchronisation.
func (n *NIC) CausalObs() vclock.VC {
	if cau := n.sys.cau; cau != nil {
		return cau.ObsSnapshot(int(n.id))
	}
	return nil
}

// CausalMergeObs folds a received observation clock (barrier release) into
// this node's own. No-op unless causal coherence is active and obs non-nil.
func (n *NIC) CausalMergeObs(obs vclock.VC) {
	if cau := n.sys.cau; cau != nil && obs != nil {
		cau.MergeObs(int(n.id), obs)
	}
}

// unlockInternal releases a literal-protocol internal lock acquisition.
func (n *NIC) unlockInternal(area memory.Area, proc int) {
	rr := n.oneWay(area)
	rr.acc.Proc = proc
	n.send(n.homeOf(area), network.KindUnlock, network.HeaderBytes, rr)
}

// ---- Literal protocol: Algorithms 1 and 2, message by message. The hop
// sequence lives in the initOp continuations (init_op.go); only the first
// hop and the post-completion tail run on the process. ----

// writeClockApply performs put_clock in "apply" form: the home folds the
// access into the area state (merge per Algorithm 4, home tick, W update).
func (n *NIC) writeClockApply(area memory.Area, acc core.Access) {
	rr := n.oneWay(area)
	rr.acc, rr.apply = acc, true
	n.send(n.homeOf(area), network.KindClockWrite, network.HeaderBytes+n.sys.ClockBytes(accClock(acc)), rr)
}

// writeClockRaw performs put_clock with explicit values (the second
// update_clock of Algorithm 1; idempotent by construction).
func (n *NIC) writeClockRaw(area memory.Area, v, w vclock.VC) {
	size := network.HeaderBytes + n.sys.ClockBytes(vclock.Dense(v)) + n.sys.ClockBytes(vclock.Dense(w))
	rr := n.oneWay(area)
	rr.v, rr.w = v, w
	n.send(n.homeOf(area), network.KindClockWrite, size, rr)
}

// startLiteral begins a literal-protocol operation: with locks enabled it
// issues the internal lock request (not observed, no clock transport — the
// mechanism lock must not create user-visible happens-before, or no race
// could ever be detected) and the grant continuation defers stage1;
// otherwise stage1 runs directly from process context.
func (o *initOp) startLiteral(stage1 func()) {
	o.stage1Fn = stage1
	if o.lockOn {
		rr := o.newReq(o.area)
		rr.acc.Proc = o.acc.Proc
		o.issue(o.n.homeOf(o.area), network.KindLockReq, network.HeaderBytes, rr, o.grantFn)
		return
	}
	stage1()
}

// putLiteral is Algorithm 1 verbatim:
//
//	lock(P0,src)            — local, no-op for private memory (§IV-A)
//	lock(P1,dst)            — remote NIC lock
//	V = update_local_clock  — done by the caller (acc.Clock is ticked)
//	V' = get_clock(P1,dst)  — remote clock fetch
//	compare_clocks both ways (Algorithm 3) → signal_race_condition
//	put(P0,src,P1,dst)      — the data message
//	update_clock_W / update_clock (Algorithm 5: fetch, max, write back)
//	unlock(P1,dst); unlock(P0,src)
func (n *NIC) putLiteral(p *sim.Proc, area memory.Area, off int, data []memory.Word, acc core.Access) (vclock.Masked, error) {
	o := n.sys.grabInit(n, p)
	o.area, o.off, o.data, o.acc = area, off, data, acc
	o.lockOn = n.sys.cfg.LocksEnabled
	o.startLiteral(o.putStage1Fn)
	o.await()
	err := o.err()
	if err == nil {
		// update_clock: write the (already updated) clocks back — idempotent,
		// kept for message fidelity.
		n.writeClockRaw(area, o.v, o.w)
	}
	if o.lockOn {
		n.unlockInternal(area, acc.Proc)
	}
	releaseInit(n.ps, o)
	return vclock.Masked{}, err
}

// getLiteral is Algorithm 2 verbatim: lock, fetch clocks, compare the
// initiator clock against the *write* clock, transfer the data, run
// update_clock on the source area, unlock.
func (n *NIC) getLiteral(p *sim.Proc, area memory.Area, off, count int, acc core.Access, dst []memory.Word) ([]memory.Word, vclock.Masked, error) {
	o := n.sys.grabInit(n, p)
	o.area, o.off, o.count, o.acc = area, off, count, acc
	o.want, o.into = count, dst
	o.lockOn = n.sys.cfg.LocksEnabled
	o.startLiteral(o.getStage1Fn)
	o.await()
	gotData, err := o.outData, o.err()
	var absorb vclock.Masked
	if err == nil {
		n.writeClockApply(area, acc)
		if n.sys.cfg.AbsorbOnGetReply {
			// The write clock the read observed (reads-from edge); a raw
			// clock read carries no mask, so the absorb is dense.
			absorb = vclock.Dense(o.w)
		}
	}
	if o.lockOn {
		n.unlockInternal(area, acc.Proc)
	}
	releaseInit(n.ps, o)
	if err != nil {
		return nil, vclock.Masked{}, err
	}
	return gotData, absorb, nil
}
