package rdma

import (
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// lockState is the NIC-side lock for one memory area (§III-A: "since NICs
// are in charge with memory management in the public memory space, they can
// provide locks on memory areas"). Waiters are queued FIFO as continuations;
// the lock is re-entrant per owner so a process holding a user-level lock
// on an area can still operate on it.
type lockState struct {
	held    bool
	owner   int
	depth   int
	waiters sim.Ring[lockWaiter]
	// relClock is the clock carried by the most recent user-level unlock;
	// the next user-level grant returns it, creating the release→acquire
	// happens-before edge. Masked, so a lock chain confined to a few
	// processes keeps its clocks sparse.
	relClock vclock.Masked
	// relObs accumulates, under causal coherence, the observation clocks of
	// every user-level releaser; each grant ships a copy, so an acquirer
	// inherits the causal dependencies of everything written before the
	// release (lock-transported causality — what makes race-free locked
	// programs sequentially consistent on causal memory).
	relObs vclock.VC
	// lenient absorbs a release of an unheld lock instead of panicking —
	// set under faults, where a crash sweep may have force-expired the
	// tenure a late continuation still believes it holds.
	lenient bool
	// msgHeld marks the outermost level as a user-level message hold (a
	// granted lock.req, released only by a matching unlock message). The
	// crash sweep may force-release such a hold directly; an op-tenure hold
	// (a continuation mid-flight) must instead expire via ownerDead.
	msgHeld bool
	// ownerDead expires the user level of a crashed holder's nested tenure:
	// when the in-flight op level releases down to depth 1, release drops
	// the remaining level too, handing the lock to the next waiter.
	ownerDead bool
	// lastGrant is the request id of the most recent user-level grant,
	// letting a retransmitted lock.req (original grant lost) be re-replied
	// without a second acquisition.
	lastGrant uint64
}

// lockWaiter queues one deferred acquisition. payload carries the pooled
// structs (the home-side req, and for data ops the homeOp) the continuation
// would release, so a crash sweep purging the waiter can complete their pool
// lifecycle without running fn.
type lockWaiter struct {
	owner   int
	fn      func()
	payload any
}

// acquire runs fn once the lock is held by owner. When the lock is free or
// already held by the same owner, fn runs immediately (still in the current
// event); otherwise it is queued.
func (l *lockState) acquire(owner int, fn func(), payload any) {
	if l.held && l.owner == owner {
		l.depth++
		fn()
		return
	}
	if !l.held {
		l.held = true
		l.owner = owner
		l.depth = 1
		fn()
		return
	}
	l.waiters.PushBack(lockWaiter{owner: owner, fn: fn, payload: payload})
}

// release drops one level of the lock; when fully released the next waiter
// (if any) acquires and its continuation runs.
func (l *lockState) release() {
	if !l.held {
		if l.lenient {
			return
		}
		panic("rdma: release of unheld lock")
	}
	l.depth--
	if l.depth > 0 {
		if l.ownerDead && l.depth == 1 {
			// The holder crashed mid-tenure; its user level can never be
			// released by a message. Expire it now that the op level ended.
			l.depth = 0
		} else {
			return
		}
	}
	l.msgHeld = false
	l.ownerDead = false
	if l.waiters.Len() == 0 {
		l.held = false
		return
	}
	w := l.waiters.PopFront()
	l.owner = w.owner
	l.depth = 1
	w.fn()
}
