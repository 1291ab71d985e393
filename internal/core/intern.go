package core

import (
	"slices"

	"dsmrace/internal/vclock"
)

// clockIntern hash-conses the vector-clock snapshots stored reports carry.
//
// A racy large-n workload signals one report per conflicting access, and
// every stored report used to pay three O(n) clock copies (StoredClock,
// Current.Clock, Prior.Clock). The values repeat heavily: between two
// writes, every racing read observes the same stored write clock, and a
// whole train of reports names the same prior conflicting access. Interning
// lets all of them share one immutable snapshot — the canonical copy is
// collector-owned, identical by value to what Clone would have produced, so
// report content (and therefore every report-hash fingerprint) is
// unchanged; only the backing storage is deduplicated.
//
// Interned clocks are shared and must never be mutated. The Collector is
// the only producer, and reports it hands out are documented read-only.
type clockIntern struct {
	buckets map[uint64][]vclock.VC
	// bytes is the storage actually held: 8 bytes per component per unique
	// snapshot. naive is what per-report cloning would have held.
	bytes, naive int
	refs, unique int
}

// hashClock is FNV-1a over the clock's components.
func hashClock(c vclock.VC) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range c {
		h ^= x
		h *= 1099511628211
	}
	return h
}

// get returns the canonical snapshot equal to c, copying c in on first
// sight. nil stays nil.
func (t *clockIntern) get(c vclock.VC) vclock.VC {
	if c == nil {
		return nil
	}
	t.refs++
	t.naive += 8 * len(c)
	if t.buckets == nil {
		t.buckets = make(map[uint64][]vclock.VC)
	}
	h := hashClock(c)
	for _, e := range t.buckets[h] {
		if slices.Equal(e, c) {
			return e
		}
	}
	cc := c.Copy()
	t.buckets[h] = append(t.buckets[h], cc)
	t.unique++
	t.bytes += 8 * len(cc)
	return cc
}

// InternStats summarises a collector's report-clock storage.
type InternStats struct {
	// Refs is the number of clock fields stored across all reports.
	Refs int
	// Unique is the number of distinct snapshots actually held.
	Unique int
	// Bytes is the storage held by those snapshots.
	Bytes int
	// NaiveBytes is what per-report cloning (no interning) would hold.
	NaiveBytes int
}

// cloneInterned is Report.Clone with every copied clock routed through the
// intern table. The semantics match Clone exactly: the result shares no
// storage with detector or process scratch buffers — it shares storage only
// with other interned reports, all of which treat it as immutable.
func (r Report) cloneInterned(t *clockIntern) Report {
	c := r
	c.StoredClock = t.get(r.StoredClock)
	c.Current.Clock = t.get(r.Current.Clock)
	c.Current.ClockNZ = nil
	if r.Prior != nil {
		p := *r.Prior
		p.Clock = t.get(r.Prior.Clock)
		p.ClockNZ = nil
		if r.Prior.Locks != nil {
			p.Locks = append([]int(nil), r.Prior.Locks...)
		}
		c.Prior = &p
	}
	return c
}
