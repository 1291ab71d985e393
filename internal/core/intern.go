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
// Storage is two flat structures and no per-clock object. The index is an
// open-addressed, linearly probed, power-of-two table of (hash, snapshot)
// entries; a grow re-places entries by their stored hash and moves only
// slice headers, so a snapshot handed out before the grow is still the
// canonical one after it. The snapshots themselves are carved off the tail
// of the current slab, and a full slab is simply dropped by the table — the
// snapshots already carved keep it alive.
//
// Interned clocks are shared and must never be mutated. The Collector is
// the only producer, and reports it hands out are documented read-only.
// Every snapshot is carved with cap == len, so even a stray append on a
// report's clock reallocates instead of writing into the neighbouring
// snapshot.
type clockIntern struct {
	// table is empty (nil snap) or occupied per slot; len is a power of two
	// and at most three quarters of it is occupied.
	table []internEntry
	// slab is the current arena chunk: len is the part carved so far.
	slab []uint64
	// bytes is the storage actually held: 8 bytes per component per unique
	// snapshot. naive is what per-report cloning would have held.
	bytes, naive int
	refs, unique int
}

type internEntry struct {
	hash uint64
	snap vclock.VC // nil marks an empty slot; a zero-length snapshot is non-nil
}

const (
	// internMinTable is the first table size.
	internMinTable = 256
	// slabWords sizes an arena chunk (32 KiB, the largest allocation the Go
	// runtime still serves from a size class). A longer clock gets a chunk
	// of its own.
	slabWords = 4096
)

// hashClock is FNV-1a over the clock's components, with the high half folded
// down: a product's low bits see only the low bits of its factors, and the
// table indexes by the low bits.
func hashClock(c vclock.VC) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range c {
		h ^= x
		h *= 1099511628211
	}
	return h ^ h>>32
}

// get returns the canonical snapshot equal to c, copying c in on first
// sight. nil stays nil.
func (t *clockIntern) get(c vclock.VC) vclock.VC {
	if c == nil {
		return nil
	}
	t.refs++
	t.naive += 8 * len(c)
	if 4*(t.unique+1) > 3*len(t.table) {
		t.grow()
	}
	h := hashClock(c)
	mask := uint64(len(t.table) - 1)
	i := h & mask
	for ; t.table[i].snap != nil; i = (i + 1) & mask {
		if e := &t.table[i]; e.hash == h && slices.Equal(e.snap, c) {
			return e.snap
		}
	}
	snap := t.carve(c)
	t.table[i] = internEntry{hash: h, snap: snap}
	t.unique++
	t.bytes += 8 * len(snap)
	return snap
}

// grow doubles the table. Entries are distinct by construction, so each is
// dropped into the first free slot of its probe sequence without comparing.
func (t *clockIntern) grow() {
	old := t.table
	size := 2 * len(old)
	if size == 0 {
		size = internMinTable
	}
	t.table = make([]internEntry, size)
	mask := uint64(len(t.table) - 1)
	for _, e := range old {
		if e.snap == nil {
			continue
		}
		i := e.hash & mask
		for t.table[i].snap != nil {
			i = (i + 1) & mask
		}
		t.table[i] = e
	}
}

// carve copies c onto the tail of the slab, opening a new one when c does
// not fit, and returns the copy capped at its own length.
func (t *clockIntern) carve(c vclock.VC) vclock.VC {
	n := len(c)
	if t.slab == nil || n > cap(t.slab)-len(t.slab) {
		t.slab = make([]uint64, 0, max(n, slabWords))
	}
	off := len(t.slab)
	t.slab = append(t.slab, c...)
	return t.slab[off : off+n : off+n]
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
