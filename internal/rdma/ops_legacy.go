package rdma

import (
	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// The pre-CPS initiator path: every remote hop performs a full park/resume
// round trip of the issuing process's goroutine. Kept verbatim behind
// Config.LegacyInitiator (but for copying payloads in and out of the pooled
// structs' buffers, as every path must) as the reference implementation for the
// differential determinism suite (TestInitiatorPathDifferential), which
// runs identical schedules under both paths and requires bit-identical
// fingerprints. Do not extend this path; new behaviour goes into the
// continuation-passing implementations in ops.go / init_op.go.

// roundTrip sends a request and parks the calling process until the
// response arrives. The caller's req literal is copied into a pooled
// struct, so it can live on the caller's stack; the pooled req is recycled
// once the response proves the home side is done with it. The returned resp
// is pooled too: the caller extracts what it needs and hands it back via
// releaseResp.
func (n *NIC) roundTrip(p *sim.Proc, dst network.NodeID, kind network.Kind, size int, r *req) *resp {
	rr := n.ps.grabReq()
	rr.copyFrom(r)
	rr.id = n.ps.nextReq()
	rr.origin = n.id
	pd := n.ps.grabPending(p)
	n.addLegacyPending(rr.id, pd)
	n.sys.net.Send(&network.Message{Src: n.id, Dst: dst, Kind: kind, Size: size, Area: wireArea(rr.area), Payload: rr})
	for !pd.done {
		p.Park(parkReason(kind))
	}
	n.dropPending(rr.id)
	rs := pd.resp
	n.ps.releasePending(pd)
	n.ps.releaseReq(rr)
	return rs
}

// legacyPut is the parked-path put (single round trip, resumes the
// goroutine to absorb the ack).
func (n *NIC) legacyPut(p *sim.Proc, area memory.Area, off int, data []memory.Word, acc core.Access) (vclock.Masked, error) {
	size := network.HeaderBytes + len(data)*memory.WordBytes
	hasAcc := n.sys.DetectionOn()
	if hasAcc {
		size += n.sys.ClockBytes(accClock(acc))
	}
	rs := n.roundTrip(p, network.NodeID(area.Home), network.KindPutReq, size,
		&req{area: area, off: off, data: data, acc: acc, hasAcc: hasAcc})
	clock, err := rs.clock, asError(rs.err)
	n.ps.releaseResp(rs)
	if err != nil {
		n.ps.releaseClock(clock)
		return vclock.Masked{}, err
	}
	n.sys.coh.PatchCopy(int(n.id), area, off, data, clock)
	if n.sys.cfg.AbsorbOnPutAck {
		return clock, nil
	}
	n.ps.releaseClock(clock)
	return vclock.Masked{}, nil
}

// legacyGet is the parked-path get.
func (n *NIC) legacyGet(p *sim.Proc, area memory.Area, off, count int, acc core.Access, dst []memory.Word) ([]memory.Word, vclock.Masked, error) {
	size := network.HeaderBytes
	hasAcc := n.sys.DetectionOn()
	if hasAcc {
		size += n.sys.ClockBytes(accClock(acc))
	}
	rs := n.roundTrip(p, network.NodeID(area.Home), network.KindGetReq, size,
		&req{area: area, off: off, count: count, acc: acc, hasAcc: hasAcc})
	clock, err := rs.clock, asError(rs.err)
	if err != nil {
		n.ps.releaseResp(rs)
		n.ps.releaseClock(clock)
		return nil, vclock.Masked{}, err
	}
	data := deliver(dst, rs.data)
	n.ps.releaseResp(rs)
	if n.sys.cfg.AbsorbOnGetReply {
		return data, clock, nil
	}
	n.ps.releaseClock(clock)
	return data, vclock.Masked{}, nil
}

// legacyAtomic is the parked-path remote atomic.
func (n *NIC) legacyAtomic(p *sim.Proc, area memory.Area, off int, op AtomicOp, a1, a2 memory.Word, acc core.Access) (memory.Word, vclock.Masked, error) {
	size := network.HeaderBytes + 2*memory.WordBytes
	hasAcc := n.sys.DetectionOn()
	if hasAcc {
		size += n.sys.ClockBytes(accClock(acc))
	}
	rs := n.roundTrip(p, network.NodeID(area.Home), network.KindAtomicReq, size,
		&req{area: area, off: off, op: op, arg1: a1, arg2: a2, acc: acc, hasAcc: hasAcc})
	clock, err := rs.clock, asError(rs.err)
	var old memory.Word
	if len(rs.data) > 0 {
		old = rs.data[0]
	}
	n.ps.releaseResp(rs)
	if err != nil {
		n.ps.releaseClock(clock)
		return 0, vclock.Masked{}, err
	}
	if n.sys.cfg.Coherence.CachesRemoteReads() {
		n.sys.coh.PatchCopy(int(n.id), area, off, []memory.Word{op.Apply(old, a1, a2)}, clock)
	}
	var absorb vclock.Masked
	if n.sys.cfg.AbsorbOnPutAck {
		absorb = clock
	} else {
		n.ps.releaseClock(clock)
	}
	return old, absorb, nil
}

// legacyFetchMiss is the parked-path write-invalidate read miss (the
// home-local and cache-hit branches are shared with the CPS path and never
// reach here).
func (n *NIC) legacyFetchMiss(p *sim.Proc, area memory.Area, off, count int, acc core.Access, dst []memory.Word) ([]memory.Word, vclock.Masked, error) {
	size := network.HeaderBytes
	hasAcc := n.sys.DetectionOn()
	if hasAcc {
		size += n.sys.ClockBytes(accClock(acc))
	}
	rs := n.roundTrip(p, network.NodeID(area.Home), network.KindFetchReq, size,
		&req{area: area, off: off, count: count, acc: acc, hasAcc: hasAcc})
	clock, err := rs.clock, asError(rs.err)
	if err != nil {
		n.ps.releaseResp(rs)
		n.ps.releaseClock(clock)
		return nil, vclock.Masked{}, err
	}
	n.sys.coh.InstallCopy(int(n.id), area, rs.data, clock)
	out := deliver(dst, rs.data[off:off+count])
	n.ps.releaseResp(rs)
	if n.sys.cfg.AbsorbOnGetReply {
		return out, clock, nil
	}
	n.ps.releaseClock(clock)
	return out, vclock.Masked{}, nil
}

// legacyLockArea is the parked-path user-level lock acquisition.
func (n *NIC) legacyLockArea(p *sim.Proc, area memory.Area, proc int) vclock.Masked {
	rs := n.roundTrip(p, network.NodeID(area.Home), network.KindLockReq, network.HeaderBytes,
		&req{area: area, acc: core.Access{Proc: proc}, user: true})
	clock := rs.clock
	n.ps.releaseResp(rs)
	return clock
}

// lockInternal acquires the area lock for the literal protocol's own use
// on the parked path: not observed, no clock transport (the mechanism lock
// must not create user-visible happens-before, or no race could ever be
// detected).
func (n *NIC) lockInternal(p *sim.Proc, area memory.Area, proc int) {
	rs := n.roundTrip(p, network.NodeID(area.Home), network.KindLockReq, network.HeaderBytes,
		&req{area: area, acc: core.Access{Proc: proc}})
	n.ps.releaseResp(rs)
}

// readClocks performs get_clock / get_clock_W on the parked path: one
// request, one response carrying both stored clocks.
func (n *NIC) readClocks(p *sim.Proc, area memory.Area) (v, w vclock.VC) {
	rs := n.roundTrip(p, network.NodeID(area.Home), network.KindClockRead, network.HeaderBytes,
		&req{area: area})
	v, w = rs.v, rs.w
	n.ps.releaseResp(rs)
	return v, w
}

// legacyPutLiteral is the parked-path Algorithm 1 (see putLiteral for the
// message sequence).
func (n *NIC) legacyPutLiteral(p *sim.Proc, area memory.Area, off int, data []memory.Word, acc core.Access) (vclock.Masked, error) {
	lockOn := n.sys.cfg.LocksEnabled
	if lockOn {
		n.lockInternal(p, area, acc.Proc)
	}
	v, _ := n.readClocks(p, area)
	if core.CheckWrite(acc.Clock, v) {
		n.sys.signal(n, &core.Report{
			Detector:    n.sys.cfg.Detector.Name(),
			Area:        area.ID,
			Current:     acc,
			StoredClock: v,
		}, p.Now())
	}
	rs := n.roundTrip(p, network.NodeID(area.Home), network.KindPutReq,
		network.HeaderBytes+len(data)*memory.WordBytes,
		&req{area: area, off: off, data: data, acc: acc, hasAcc: false})
	err := asError(rs.err)
	n.ps.releaseResp(rs)
	if err == nil {
		// update_clock_W: re-fetch (Algorithm 5's get_clock), then fold the
		// write into the state.
		n.readClocks(p, area)
		n.writeClockApply(area, acc)
		// update_clock: fetch the (now updated) clocks and write them back —
		// idempotent, kept for message fidelity.
		v2, w2 := n.readClocks(p, area)
		n.writeClockRaw(area, v2, w2)
	}
	if lockOn {
		n.unlockInternal(area, acc.Proc)
	}
	return vclock.Masked{}, err
}

// legacyGetLiteral is the parked-path Algorithm 2.
func (n *NIC) legacyGetLiteral(p *sim.Proc, area memory.Area, off, count int, acc core.Access, dst []memory.Word) ([]memory.Word, vclock.Masked, error) {
	lockOn := n.sys.cfg.LocksEnabled
	if lockOn {
		n.lockInternal(p, area, acc.Proc)
	}
	_, w := n.readClocks(p, area)
	if core.CheckRead(acc.Clock, w) {
		n.sys.signal(n, &core.Report{
			Detector:    n.sys.cfg.Detector.Name(),
			Area:        area.ID,
			Current:     acc,
			StoredClock: w,
		}, p.Now())
	}
	rs := n.roundTrip(p, network.NodeID(area.Home), network.KindGetReq, network.HeaderBytes,
		&req{area: area, off: off, count: count, acc: acc, hasAcc: false})
	err := asError(rs.err)
	var gotData []memory.Word
	if err == nil {
		gotData = deliver(dst, rs.data)
	}
	n.ps.releaseResp(rs)
	var absorb vclock.Masked
	if err == nil {
		n.readClocks(p, area)
		n.writeClockApply(area, acc)
		if n.sys.cfg.AbsorbOnGetReply {
			// The write clock the read observed (reads-from edge); a raw
			// clock read carries no mask, so the absorb is dense.
			absorb = vclock.Dense(w)
		}
	}
	if lockOn {
		n.unlockInternal(area, acc.Proc)
	}
	if err != nil {
		return nil, vclock.Masked{}, err
	}
	return gotData, absorb, nil
}
