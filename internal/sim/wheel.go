package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// The future-event queue is a hierarchical timing wheel: wheelLevels levels
// of 64 slots each, where a level-L slot spans 64^L nanoseconds of virtual
// time. Scheduling and popping are O(1) amortised (each event cascades at
// most wheelLevels-1 times on its way down), against the O(log n) of the
// container/heap queue it replaces — and events are threaded through typed
// slices, so nothing is boxed through interface{}.
//
// Determinism contract: events pop in exactly (at, seq) order, byte-identical
// to the heap implementation. Time order comes from the slot geometry (an
// event is only ever popped out of a level-0 slot, which spans a single
// nanosecond); seq order among same-instant events comes from ordering that
// slot once, when its drain starts — until then it holds them in arbitrary
// arrival order (direct pushes interleave with cascades).
//
// Two invariants carry all the correctness weight:
//
//  1. Cursor safety: the cursor never passes the kernel's current time while
//     events can still be pushed behind it — a slot index is only meaningful
//     within one 64-bucket window of the cursor, so a push at a time before
//     the cursor would be misfiled. peekWithin therefore refuses to advance
//     the cursor past its limit; the kernel passes now when it merely
//     compares the wheel against the now-queue, and an unbounded limit only
//     when it is about to pop the wheel (which immediately advances kernel
//     time to the popped event, restoring cursor <= now).
//
//  2. Entry cascade: whenever the cursor enters a new bucket at level L >= 1,
//     that bucket's slot is cascaded down (setCur). Afterwards an occupied
//     slot at the cursor's own index always means "one full window ahead",
//     which is what makes the next-slot scan's window disambiguation sound.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelLevels = 8              // horizon 64^8 ns ≈ 3.3 virtual days
)

// wheelHorizon is the furthest cursor-relative delta the wheel proper can
// hold; events beyond it wait in the overflow list (unreachable for the
// latencies this simulator models, but a MaxTime-free workload must not be
// able to corrupt the queue).
const wheelHorizon = Time(1) << (wheelBits * wheelLevels)

// timeMax bounds an unbounded peek.
const timeMax = Time(1<<63 - 1)

type wheel struct {
	// cur is the wheel cursor: every resident event has at >= cur, and
	// cur never exceeds the kernel's current time between events.
	cur    Time
	count  int
	occ    [wheelLevels]uint64               // nonempty-slot bitmap per level
	slots  [wheelLevels][wheelSlots][]*event // per-slot event lists
	over   []*event                          // beyond-horizon overflow
	overAt Time                              // min at over `over` (valid when non-empty)
	// draining names the level-0 slot (index+1; 0 for none) whose list is
	// held in ascending seq order from index head on, the taken prefix before
	// it nil: peekWithin orders a slot the first time it serves from it, take
	// advances head, and a late push into it — usually the largest seq so
	// far — appends, sifting down only past larger seqs. Draining an instant
	// of k events costs one ordering pass, not k scans. A level-0 slot only
	// ever holds events of a single instant (they all lie within 64ns after
	// the cursor and agree modulo 64).
	draining int
	head     int
	// peeked caches the event located by the last peekWithin — the head of
	// level-0 slot pSlot — so the immediately following take needs no search.
	peeked *event
	pSlot  int
}

func (w *wheel) len() int { return w.count + len(w.over) }

// invalidatePeek drops the cached peek and the draining slot's order.
// Required after resident events' keys are rewritten in place (the window
// barrier's replay): both memoise a seq order the rewrite may have changed.
func (w *wheel) invalidatePeek() {
	w.peeked = nil
	w.endDrain()
}

// endDrain returns the draining slot to an ordinary unordered one, closing
// up its taken prefix.
func (w *wheel) endDrain() {
	if w.draining == 0 {
		return
	}
	list := w.slots[0][w.draining-1]
	n := copy(list, list[w.head:])
	clear(list[n:])
	w.slots[0][w.draining-1] = list[:n]
	w.draining, w.head = 0, 0
}

// push inserts an event; e.at must be >= w.cur (the kernel only schedules
// at or after its current time, and the cursor never passes that — for a
// MultiKernel shard the cursor additionally never passes the window
// horizon, so barrier filings can never land behind it). A push behind the
// cursor would be silently misfiled, so it panics instead.
func (w *wheel) push(e *event) {
	if e.at < w.cur {
		panic("sim: event pushed behind the wheel cursor")
	}
	w.peeked = nil
	d := e.at - w.cur
	if d >= wheelHorizon {
		if len(w.over) == 0 || e.at < w.overAt {
			w.overAt = e.at
		}
		w.over = append(w.over, e)
		return
	}
	level := 0
	if d > 0 {
		level = (bits.Len64(uint64(d)) - 1) / wheelBits
	}
	idx := int(uint64(e.at)>>(uint(level)*wheelBits)) & (wheelSlots - 1)
	list := append(w.slots[level][idx], e)
	if level == 0 && w.draining == idx+1 {
		// Keep the draining slot ordered: sift e down from the tail.
		i := len(list) - 1
		for ; i > w.head && list[i-1].seq > e.seq; i-- {
			list[i] = list[i-1]
		}
		list[i] = e
	}
	w.slots[level][idx] = list
	w.occ[level] |= 1 << uint(idx)
	w.count++
}

// setCur advances the cursor to t and re-establishes the entry-cascade
// invariant: at every level whose bucket the move entered, the new current
// bucket's slot is cascaded down. The pass runs top-down so events a high
// level drops into a lower level's current bucket are cascaded in turn by
// the lower level's own pass.
func (w *wheel) setCur(t Time) {
	old := w.cur
	w.cur = t
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		shift := uint(lvl) * wheelBits
		if uint64(old)>>shift == uint64(t)>>shift {
			// The move stayed inside this bucket, so it stayed inside every
			// coarser bucket too; lower levels may still have changed.
			continue
		}
		idx := int(uint64(t)>>shift) & (wheelSlots - 1)
		if w.occ[lvl]&(1<<uint(idx)) == 0 {
			continue
		}
		// The slot can mix events of the entered bucket (filed long ago)
		// with events one window ahead (filed recently); re-pushing sorts
		// both out — ahead events may land back in this same slot, which is
		// safe: each re-push writes an index the loop has already read.
		list := w.slots[lvl][idx]
		w.slots[lvl][idx] = list[:0]
		w.occ[lvl] &^= 1 << uint(idx)
		w.count -= len(list)
		for _, e := range list {
			w.push(e)
		}
	}
	w.peeked = nil
}

// peekWithin locates the (at, seq)-least event without removing it,
// cascading pending higher-level slots on the way, and returns it — or nil
// when the wheel is empty or its earliest event is after limit. The cursor
// never advances past limit, so a nil return leaves the wheel able to
// accept pushes at any later kernel instant up to limit.
func (w *wheel) peekWithin(limit Time) *event {
	if w.peeked != nil && w.peeked.at <= limit {
		return w.peeked
	}
	for w.count > 0 || len(w.over) > 0 {
		// Fast path: the earliest occupied level-0 slot at or after the
		// cursor within the cursor's current 64ns window. The entry-cascade
		// invariant guarantees no higher-level slot can start inside this
		// window (level >= 1 starts are 64-aligned, and the aligned start is
		// the current bucket, emptied on entry), so the candidate is the
		// global minimum.
		c0 := int(uint64(w.cur)) & (wheelSlots - 1)
		if m := w.occ[0] &^ (uint64(1)<<uint(c0) - 1); m != 0 {
			idx := bits.TrailingZeros64(m)
			at := (w.cur &^ Time(wheelSlots-1)) | Time(idx)
			if at > limit {
				return nil
			}
			// An overflow event due at or before the candidate must come
			// first: it was pushed a full horizon earlier, so it carries
			// the smaller seq. Re-home the overflow and rescan. (overAt <=
			// at <= limit, so the cursor move respects the bound.)
			if len(w.over) > 0 && w.overAt <= at {
				w.setCur(w.overAt)
				w.rehomeOverflow()
				continue
			}
			list := w.slots[0][idx]
			if w.draining != idx+1 {
				w.endDrain()
				w.draining = idx + 1
				orderAscending(list)
			}
			w.pSlot = idx
			w.peeked = list[w.head]
			return w.peeked
		}
		// Slow path: move the cursor to the earliest pending slot across all
		// levels (wrapped level-0 slots of the next window included) or to
		// the overflow front; setCur cascades whatever the move enters.
		lvl, start := w.next()
		if lvl < 0 || start > limit {
			return nil
		}
		w.setCur(start)
		if lvl >= wheelLevels {
			w.rehomeOverflow()
		}
	}
	return nil
}

// rehomeOverflow re-files every overflow event against the current cursor;
// still-beyond-horizon stragglers land straight back in over.
func (w *wheel) rehomeOverflow() {
	pend := w.over
	w.over = nil
	w.overAt = 0
	for _, e := range pend {
		w.push(e)
	}
}

// next finds the earliest pending slot start across all levels, plus the
// overflow list. It returns the level (wheelLevels for the overflow, -1
// when nothing is pending) and the slot's absolute start time. Thanks to
// the entry-cascade invariant, an occupied bit at the cursor's own index of
// any level means exactly one window ahead.
func (w *wheel) next() (int, Time) {
	best := -1
	var bestStart Time
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := w.occ[lvl]
		if occ == 0 {
			continue
		}
		shift := uint(lvl) * wheelBits
		cb := uint64(w.cur) >> shift
		c := int(cb) & (wheelSlots - 1)
		var bkt uint64
		if hi := occ &^ (uint64(1)<<uint(c+1) - 1); hi != 0 {
			bkt = cb + uint64(bits.TrailingZeros64(hi)-c)
		} else {
			lo := occ & (uint64(1)<<uint(c+1) - 1)
			bkt = cb + uint64(wheelSlots-c+bits.TrailingZeros64(lo))
		}
		if start := Time(bkt << shift); best < 0 || start < bestStart {
			best, bestStart = lvl, start
		}
	}
	// Ties go to the overflow: an overflow event at the same instant as a
	// wheel slot was necessarily pushed a full horizon earlier, so it can
	// carry the smaller seq and must be re-homed before the slot drains.
	if len(w.over) > 0 && (best < 0 || w.overAt <= bestStart) {
		best, bestStart = wheelLevels, w.overAt
	}
	return best, bestStart
}

// take removes and returns the event the last peekWithin located; the
// caller must have obtained a non-nil peek for the current queue state.
func (w *wheel) take() *event {
	e := w.peeked
	list := w.slots[0][w.pSlot]
	list[w.head] = nil
	if w.head++; w.head == len(list) {
		w.slots[0][w.pSlot] = list[:0]
		w.occ[0] &^= 1 << uint(w.pSlot)
		w.draining, w.head = 0, 0
	}
	w.count--
	// e sits in the cursor's current 64ns window, so this never crosses a
	// coarser bucket boundary — a plain cursor move, no cascades to check.
	w.cur = e.at
	w.peeked = nil
	return e
}

// orderAscending sorts a slot by seq. A slot is usually filled by one burst
// (a barrier's releases, a fan-out) whose arrival order is seq order already,
// and the check is then the whole job.
func orderAscending(list []*event) {
	for i := 1; i < len(list); i++ {
		if list[i].seq < list[i-1].seq {
			slices.SortFunc(list, func(a, b *event) int { return cmp.Compare(a.seq, b.seq) })
			return
		}
	}
}

// each calls fn for every resident event, including overflow, in no
// particular order (fingerprint folds over it must commute).
func (w *wheel) each(fn func(*event)) {
	for l := 0; l < wheelLevels; l++ {
		occ := w.occ[l]
		for occ != 0 {
			i := bits.TrailingZeros64(occ)
			occ &^= 1 << uint(i)
			for _, e := range w.slots[l][i] {
				if e != nil { // the draining slot's taken prefix
					fn(e)
				}
			}
		}
	}
	for _, e := range w.over {
		fn(e)
	}
}
