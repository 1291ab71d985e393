package rdma

// Exploration support: a deterministic fingerprint of the protocol-engine
// state that is not visible in memory content or coherence replicas — lock
// tables, in-flight initiator operations, open invalidation rounds. The
// model checker (internal/mcheck) folds it into its state-fingerprint memo
// so two choice points merge only when the whole machine, not just memory,
// is in the same state. Request ids are deliberately excluded: they are
// allocation-order-dependent, and two states differing only by an id
// renaming behave identically (ids only match replies to requests; no
// timing or routing decision reads them — see the retry-jitter salting
// rule in fault.go).

const (
	fpPrime uint64 = 1099511628211
	fpSep   uint64 = 0x9e3779b97f4a7c15
)

func fpMix(h, v uint64) uint64 { return (h ^ v) * fpPrime }

// ExploreFingerprint folds the system's protocol-engine state into h:
// coherence replicas and directories, per-node lock tables (holder, depth,
// waiter queue in grant order), pending initiator operations, and open
// invalidation joins. Iteration is dense (node, area) index order except
// the two id-keyed tables, whose folds commute; the result is a pure
// function of machine state, independent of how the run reached it.
func (s *System) ExploreFingerprint(h uint64) uint64 {
	h = s.coh.Fingerprint(h)
	for _, n := range s.nics {
		for _, l := range n.locks {
			if l == nil {
				h = fpMix(h, 0)
				continue
			}
			held := uint64(0)
			if l.held {
				held = 1
			}
			h = fpMix(h, held|uint64(l.owner+1)<<1|uint64(l.depth)<<33)
			h = fpMix(h, uint64(l.waiters.Len()))
			for i := 0; i < l.waiters.Len(); i++ {
				h = fpMix(h, uint64(l.waiters.At(i).owner+1))
			}
		}
		// pending ops, commutative over entries (the table is scanned, not
		// ordered; its slice order is compaction-dependent).
		var sum, xor uint64
		for i := range n.pending {
			o := n.pending[i].op
			m := uint64(o.kind)<<1 | 1
			m = fpMix(m, uint64(o.area.ID+1))
			m = fpMix(m, uint64(o.off)<<16|uint64(o.count))
			if o.rr != nil {
				m = fpMix(m, 1)
			}
			sum += m * fpSep
			xor ^= m * fpSep
		}
		for _, o := range n.invalWait { //dsmlint:ordered — commutative sum/xor fold; iteration order cannot reach h
			m := fpMix(uint64(o.invalLeft)<<2|3, 1) // a write's round hashes no area
			if o.invalRecall {
				m = fpMix(fpMix(uint64(o.invalLeft)<<2|3, uint64(o.r.area.ID+1)), 1)
			}
			sum += m * fpSep
			xor ^= m * fpSep
		}
		h = fpMix(h, sum)
		h = fpMix(h, xor)
		h = fpMix(h, fpSep) // node separator
	}
	return h
}
