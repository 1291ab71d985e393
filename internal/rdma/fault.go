package rdma

import (
	"errors"
	"fmt"
	"sort"

	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/fault"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// ErrUnreachable is the typed failure of an initiator operation whose remote
// peer stayed unreachable past the retry budget (crashed node, cut reply
// path, drop storm). It propagates through dsm and the facade; match it with
// errors.Is.
var ErrUnreachable = errors.New("rdma: peer unreachable")

// nackErr is the internal error sentinel of a bounced request: a round-trip
// request dropped at a crashed destination is answered — outside the fault
// checks — with a reply carrying this marker, so the initiator learns of the
// loss in its own shard context and pulls its deadline in instead of waiting
// out a full silence window. Intercepted before normal reply dispatch; never
// user-visible.
const nackErr = "\x00nack"

// lostErr marks a bounced *reply*: the home served the request but its reply
// was dropped in transit with both endpoints alive and the link up (a
// probabilistic drop). Without this marker the initiator has no evidence of
// the loss — its peer looks healthy, so the watchdog would wait forever.
// Retrying is safe for idempotent operations (the lock path dedupes via
// lastGrant); an atomic fails instead, because its original was applied.
const lostErr = "\x00lost"

// EnableFaults threads a fault injector through the system: the network
// grows per-shard fault views, every initiator op records enough state to
// retransmit, the home side releases round-trip requests itself (the
// initiator can no longer prove a reply will arrive to trigger the usual
// release), and the injector's recovery hooks are pointed at the crash sweep
// and the failover tables. Call before Injector.Arm and before any traffic.
func (s *System) EnableFaults(inj *fault.Injector) {
	s.inj = inj
	s.faultOn = true
	s.fArm = inj.Sched.Hostile()
	s.ftimeout = inj.Sched.Timeout
	s.fretryBase = inj.Sched.RetryBase
	s.fbudget = inj.Sched.RetryBudget
	s.net.EnableFaults()
	shards := s.net.ShardCount()
	s.failTab = make([][]int32, shards)
	for i := range s.failTab {
		tab := make([]int32, s.space.N())
		for j := range tab {
			tab[j] = -1
		}
		s.failTab[i] = tab
	}
	for _, n := range s.nics {
		n.wdFn = n.watchdog
	}
	inj.CrashSweep = s.faultCrash
	inj.Failover = s.faultFailover
}

// FaultsOn reports whether the fault layer is threaded through this system.
func (s *System) FaultsOn() bool { return s.faultOn }

// homeOf resolves an area's serving home: the declared home, chased through
// this shard's failover table when the fault layer is on. Every shard's
// table flips at the same virtual instant, so resolution is identical at
// every kernel count; without faults this is one predictable branch.
func (n *NIC) homeOf(a memory.Area) network.NodeID {
	h := a.Home
	if n.sys.faultOn {
		tab := n.sys.failTab[n.ps.idx]
		for range tab { // bounded chase: successors can fail over too
			nh := tab[h]
			if nh < 0 {
				break
			}
			h = int(nh)
		}
	}
	return network.NodeID(h)
}

// faultFailover is the injector's re-homing hook: record the crashed node's
// successor in this shard's table. Requests already addressed to the dead
// home keep bouncing (and retrying) until the flip; requests resolved after
// it go straight to the successor, which serves them against the crashed
// home's exported memory segment (the registered region outlives its owner —
// the crash loses the home's *detection* state, rebuilt by crashTransfer,
// not the data).
func (s *System) faultFailover(shard, node, successor int) {
	s.failTab[shard][node] = int32(successor)
}

// replyKindFor maps a round-trip request kind to its reply kind (the NACK
// bounce must dispatch through the normal reply path at the initiator).
func replyKindFor(k network.Kind) (network.Kind, bool) {
	switch k {
	case network.KindPutReq:
		return network.KindPutAck, true
	case network.KindGetReq:
		return network.KindGetReply, true
	case network.KindFetchReq:
		return network.KindFetchReply, true
	case network.KindClockRead:
		return network.KindClockReadResp, true
	case network.KindAtomicReq:
		return network.KindAtomicReply, true
	case network.KindLockReq:
		return network.KindLockGrant, true
	}
	return 0, false
}

// faultReqLost handles a dropped round-trip request. A send-time drop runs
// in the initiator's own context: mark the op so the watchdog retransmits
// knowing the request never left (the req itself is reclaimed by the caller
// with the message). A delivery-time drop runs at the crashed destination:
// bounce a NACK — fault-check-exempt, sent on the dead node's behalf — so
// the initiator learns of the loss in its own context. The drop site comes
// from the network, never from comparing shards: initiator and destination
// share a shard on one kernel and on intra-shard links, and a delivery-time
// drop there must still bounce, or recovery would depend on the partition.
func (s *System) faultReqLost(ps *shardPools, atDelivery bool, src, dst network.NodeID, kind network.Kind, r *req) {
	if !atDelivery {
		ini := s.nics[src]
		if i := ini.findPending(r.id); i >= 0 {
			if op := ini.pending[i].op; op.deadline != 0 {
				op.dropped = true
				op.rr = nil // reclaimed below with the message
			}
		}
		return
	}
	if reply, ok := replyKindFor(kind); ok {
		rs := ps.grabResp()
		rs.id = r.id
		rs.err = nackErr
		s.net.SendExempt(&network.Message{Src: dst, Dst: src, Kind: reply,
			Size: network.HeaderBytes, Area: wireArea(r.area), Payload: rs})
	}
}

// faultInvalLost completes an invalidation that can never be acknowledged —
// the vacuous-ack model: a dead sharer's copy will never be read again, so
// the home may count the acknowledgement as given. A send-time drop runs in
// the home's own context and joins the ack in place; a delivery-time drop
// bounces an ack message on the dead sharer's behalf. (A send-time inval
// drop can also mean a cut home→sharer link with the sharer alive; its stale
// copy then survives unseen by the directory — WI link cuts are lossy for
// coherence, see ARCHITECTURE.md.) As in faultReqLost, the drop site comes
// from the network.
func (s *System) faultInvalLost(ps *shardPools, atDelivery bool, src, dst network.NodeID, r *req) {
	if !atDelivery {
		s.nics[src].ackInval(r.id)
		return
	}
	rs := ps.grabResp()
	rs.id = r.id
	s.net.SendExempt(&network.Message{Src: dst, Dst: src, Kind: network.KindInvalAck,
		Size: network.HeaderBytes, Area: wireArea(r.area), Payload: rs})
}

// ---- Initiator lifecycle: deadlines, retransmission, typed failure ----

// armWatchdog ensures the NIC's coalesced deadline scan runs no later than
// at. One armed flag plus tolerance for redundant fires (the scan is
// idempotent and deterministic) replaces per-op timer events; the zero-fault
// tax of an armed-but-idle system is one flag check per issue.
func (n *NIC) armWatchdog(at sim.Time) {
	if n.wdArmed && n.wdAt <= at {
		return
	}
	n.wdArmed = true
	n.wdAt = at
	n.k.At(at, n.wdFn)
}

// faultAct is the expiry verdict for one overdue op.
type faultAct int

const (
	faultWait  faultAct = iota // peer looks alive: slowness never times out
	faultRetry                 // retransmit with backoff
	faultFail                  // fail now with ErrUnreachable
)

// expiryAction decides what to do with an op whose deadline passed, from
// this shard's fault view:
//   - this node itself crashed: fail (the sweep normally got there first);
//   - the request was dropped at send: always safe to retransmit;
//   - the destination crashed or the reply link is cut: the reply can never
//     arrive — retransmit (idempotent ops; after re-homing the retry lands
//     at the successor), except atomics, which a delivered-but-unacked
//     original would double-apply;
//   - otherwise the peer is healthy and merely slow: keep waiting. Slowness
//     is not death — the timeout only converts to action on evidence.
func (s *System) expiryAction(n *NIC, op *initOp) faultAct {
	sh := n.ps.idx
	if s.net.NodeFaulted(sh, n.id) {
		return faultFail
	}
	if op.dropped {
		return faultRetry
	}
	if !s.net.NodeFaulted(sh, op.dst) && !s.net.LinkFaulted(sh, op.dst, n.id) {
		return faultWait
	}
	if op.kind == network.KindAtomicReq {
		return faultFail
	}
	return faultRetry
}

// watchdog is the per-NIC coalesced deadline scan: fail or retransmit every
// overdue op, push healthy deadlines forward, re-arm at the earliest
// remaining deadline. It runs on the initiator's own kernel, so every
// decision and retransmission is filed exactly like first-attempt traffic.
func (n *NIC) watchdog() {
	n.wdArmed = false
	s := n.sys
	now := n.k.Now()
	next := sim.Time(-1)
	for i := 0; i < len(n.pending); i++ {
		op := n.pending[i].op
		if op.deadline == 0 {
			continue
		}
		if op.deadline > now {
			if next < 0 || op.deadline < next {
				next = op.deadline
			}
			continue
		}
		switch s.expiryAction(n, op) {
		case faultWait:
			op.deadline = now + s.ftimeout
		case faultRetry:
			if op.attempt >= s.fbudget {
				n.failPendingAt(i, op, "timed out")
				i--
				continue
			}
			n.retransmit(n.pending[i].id, op)
		case faultFail:
			n.failPendingAt(i, op, "unreachable")
			i--
			continue
		}
		if next < 0 || op.deadline < next {
			next = op.deadline
		}
	}
	if next >= 0 {
		n.armWatchdog(next)
	}
}

// retransmit re-sends an op's request from its recorded template. The home
// is re-resolved through the failover table, so a retry after re-homing
// lands at the successor; the request id is unchanged, so a late original
// reply and the retry's reply dedupe at the pending table (first one wins,
// the other is absorbed as an orphan — the idempotence the shard-namespaced
// ids buy). Backoff grows the next deadline exponentially with hash-derived
// jitter: no RNG draw, so retransmission times are identical at every
// kernel count.
func (n *NIC) retransmit(id uint64, op *initOp) {
	s := n.sys
	op.attempt++
	op.dropped = false
	dst := n.homeOf(op.tmpl.area)
	op.dst = dst
	rr := n.ps.grabReq()
	rr.copyFrom(&op.tmpl)
	rr.id = id
	rr.origin = n.id
	op.rr = rr
	s.net.Send(&network.Message{Src: n.id, Dst: dst, Kind: op.kind, Size: op.size, Area: wireArea(op.tmpl.area), Payload: rr})
	backoff := s.fretryBase << uint(op.attempt-1)
	// Jitter is salted with (area, kind), never the request id: ids are
	// shard-namespaced, so an id-derived jitter would move retransmissions
	// around with the kernel count.
	backoff += s.inj.RetryJitter(int(n.id), uint64(op.tmpl.area.ID)<<8|uint64(op.kind), op.attempt, s.fretryBase)
	op.deadline = n.k.Now() + s.ftimeout + backoff
	op.p.Relabel(fmt.Sprintf("%s->node%d (timeout, %d retries)", op.kind, int(dst), op.attempt))
}

// failPendingAt completes an op with the typed unreachable error: drop its
// pending entry and wake the process for its error tail.
func (n *NIC) failPendingAt(i int, op *initOp, why string) {
	n.dropPendingAt(i)
	op.rr = nil
	op.unreachable = true
	op.errs = fmt.Sprintf("%s to node %d %s after %d retries", op.kind, int(op.dst), why, op.attempt)
	op.deadline = 0
	op.finish()
}

// nackPending is the arrival side of the NACK bounce: mark the op dropped
// (its request was reclaimed at the crash site) and pull its deadline to
// now, so the watchdog decides retry-or-fail this instant instead of after
// a full silence window.
func (n *NIC) nackPending(rs *resp) {
	if i := n.findPending(rs.id); i >= 0 {
		if op := n.pending[i].op; op.deadline != 0 {
			op.dropped = true
			op.rr = nil
			op.deadline = n.k.Now()
			n.armWatchdog(op.deadline)
		}
	}
	n.ps.releaseResp(rs)
}

// lostPending is the arrival side of the reply-loss bounce: the request was
// served but the reply died in transit. Idempotent ops retry immediately
// (the home serves again, or dedupes); an atomic fails with the typed error —
// its first application is irreversible, and a blind retry would double it.
func (n *NIC) lostPending(rs *resp) {
	if i := n.findPending(rs.id); i >= 0 {
		if op := n.pending[i].op; op.deadline != 0 {
			if op.kind == network.KindAtomicReq {
				n.failPendingAt(i, op, "reply lost")
			} else {
				op.dropped = true
				op.rr = nil
				op.deadline = n.k.Now()
				n.armWatchdog(op.deadline)
			}
		}
	}
	n.ps.releaseResp(rs)
}

// err converts the op's transported error state back to an error, wrapping
// the typed sentinel when the retry budget was exhausted.
func (o *initOp) err() error {
	if o.unreachable {
		return fmt.Errorf("%w: %s", ErrUnreachable, o.errs)
	}
	return asError(o.errs)
}

// ---- Crash sweep and re-homing ----

// faultCrash is the injector's crash hook, run on every shard at the exact
// crash instant (before any same-instant program event):
//   - every shard purges the crashed node from the sharer directories of
//     areas homed on that shard, removes its queued lock acquisitions
//     (granting a dead requester would wedge the lock forever) and expires
//     lock tenures it holds — lease expiry: the lock passes on rather than
//     stranding the survivors;
//   - the crashed node's own shard additionally invalidates its cached
//     copies, drains the invalidation rounds it was serving as a home (so
//     every pooled struct completes its lifecycle — PoolBalance still
//     audits zero), removes ALL waiters from its lock queues, fails its
//     in-flight initiator ops with ErrUnreachable, and files the detection-
//     state transfer through the ordered log.
//
// In-flight home operations of the crashed node (already granted, inside
// their occupancy window) run to completion: they model DMA already in
// flight against the exported segment, and their replies are dropped by the
// fault views.
//
//dsmlint:eventhandler
func (s *System) faultCrash(shard, node int, at sim.Time) {
	fs, hasFS := s.coh.(coherence.FaultSupport)
	if hasFS {
		for _, a := range s.space.Areas() {
			if s.net.ShardOf(network.NodeID(a.Home)) == shard {
				fs.PurgeSharer(node, a)
			}
		}
	}
	for _, nic := range s.nics {
		if nic.ps.idx != shard {
			continue
		}
		crashedNIC := int(nic.id) == node
		for _, l := range nic.locks {
			if l == nil {
				continue
			}
			if crashedNIC {
				nic.purgeWaiters(l, fault.AnyNode)
			} else {
				nic.purgeWaiters(l, node)
				if l.held && l.owner == node {
					if l.msgHeld && l.depth == 1 {
						l.release() // expire the dead holder's tenure now
					} else {
						l.ownerDead = true // expire when the op tenure ends
					}
				}
			}
		}
		if crashedNIC {
			nic.drainInvalJoins()
		}
	}
	if s.net.ShardOf(network.NodeID(node)) == shard {
		nic := s.nics[node]
		if hasFS {
			fs.DropNodeCopies(node)
		}
		for i := len(nic.pending) - 1; i >= 0; i-- {
			if op := nic.pending[i].op; op.deadline != 0 {
				nic.failPendingAt(i, op, "lost to local crash")
			}
		}
		nic.k.LogOrdered(func() { s.crashTransfer(node, at) })
	}
}

// purgeWaiters removes queued lock acquisitions owned by crashed (or, with
// fault.AnyNode, every queued acquisition — the whole table is dying). Their
// queued payloads (the home-side req, and for data ops the homeOp) complete
// their pool lifecycle here; the continuations never run.
func (n *NIC) purgeWaiters(l *lockState, crashed int) {
	// One trip round the ring: survivors go back in order, behind nothing.
	for i := l.waiters.Len(); i > 0; i-- {
		w := l.waiters.PopFront()
		if crashed != fault.AnyNode && w.owner != crashed {
			l.waiters.PushBack(w)
			continue
		}
		switch pl := w.payload.(type) {
		case *homeOp:
			n.ps.releaseReq(pl.r)
			pl.r = nil
			n.ps.releaseOp(pl)
		case *req:
			n.ps.releaseReq(pl)
		}
	}
}

// drainInvalJoins force-completes every invalidation round the crashed home
// was waiting on: the outstanding acks will be dropped or orphan-absorbed,
// so each round's continuation runs now — releasing the area lock and the
// writer's homeOp; the completion reply it sends is dropped at the dead
// source. Rounds are visited in ascending id order: map iteration order must
// never reach the event stream.
func (n *NIC) drainInvalJoins() {
	if len(n.invalWait) == 0 {
		return
	}
	ids := make([]uint64, 0, len(n.invalWait))
	//dsmlint:ordered ids are sorted below before any round finishes
	for id := range n.invalWait {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Empty the table first: no id may point at a homeOp once it is recycled.
	var open []*homeOp
	for _, id := range ids {
		o := n.invalWait[id]
		delete(n.invalWait, id)
		if o.invalLeft > 0 {
			o.invalLeft = 0
			open = append(open, o)
		}
	}
	for _, o := range open {
		o.invalDone()
	}
}

// ackInval joins one invalidation acknowledgement (real or synthesized by
// the drop hooks); under faults an orphan ack — its round already drained by
// a crash sweep — is absorbed silently.
func (n *NIC) ackInval(id uint64) {
	o, ok := n.invalWait[id]
	if !ok {
		if n.sys.faultOn {
			return
		}
		panic(fmt.Sprintf("rdma: node %d: orphan inval ack %d", n.id, id))
	}
	delete(n.invalWait, id)
	if o.invalRecall {
		// Every recall acknowledgement — real, vacuous (dead owner) or
		// dataless (clean line) — ends the owner's exclusivity.
		n.sys.mes.ClearExclusive(o.r.area)
	}
	o.invalLeft--
	if o.invalLeft == 0 {
		o.invalDone()
	}
}

// crashTransfer re-seeds the detection state of the crashed node's home
// areas, modelling the successor's rebuild: the (V, W) clocks a home kept in
// volatile memory die with it, so each area's clocks are reconstructed from
// the collector's interned race reports — the merge of every report clock
// for the area signalled strictly before the crash, the only surviving
// store of detection history. Races whose evidence died with the home are
// lost (the recall cost of the fault, not a bug); clocks only shrink
// relative to the lost state, so re-homing cannot invent a false race.
// Runs through the ordered log, so at any kernel count it executes at the
// crash's exact serial position, after precisely the reports that precede
// it. Area-granularity clock detectors only; other granularities keep their
// state — a documented modelling shortcut.
func (s *System) crashTransfer(node int, at sim.Time) {
	if s.areaStates == nil {
		return
	}
	var reports []core.Report
	if s.cfg.Collector != nil {
		reports = s.cfg.Collector.Reports()
	}
	nn := s.space.N()
	for _, a := range s.space.Areas() {
		if a.Home != node || int(a.ID) >= len(s.areaStates) || s.areaStates[a.ID] == nil {
			continue
		}
		ca, ok := s.areaStates[a.ID].(core.ClockAccessor)
		if !ok {
			continue
		}
		v, w := vclock.New(nn), vclock.New(nn)
		for i := range reports {
			rep := &reports[i]
			if rep.Area != a.ID || rep.Time >= at {
				continue
			}
			if rep.Current.Clock.Len() == nn {
				v.Merge(rep.Current.Clock)
			}
			if rep.StoredClock.Len() == nn {
				v.Merge(rep.StoredClock)
				w.Merge(rep.StoredClock)
			}
		}
		ca.SetClocks(v, w)
	}
}
