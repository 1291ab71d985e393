package core

import (
	"dsmrace/internal/vclock"
)

// CheckWrite is Algorithm 1's race test: a remote write with initiator
// clock k races iff k is concurrent with the area's general-purpose clock v
// (a causally unrelated prior access of any kind exists). Pure function so
// the literal protocol can run it at the initiator after fetching v.
func CheckWrite(k, v vclock.VC) bool { return vclock.ConcurrentWith(k, v) }

// CheckRead is Algorithm 2's race test: a remote read with initiator clock
// k races iff k is concurrent with the area's *write* clock w. Comparing
// against w rather than v is the paper's false-positive refinement (§IV-D):
// concurrent read-only accesses never race.
func CheckRead(k, w vclock.VC) bool { return vclock.ConcurrentWith(k, w) }

// maskedClock wraps an access's clock and occupancy mask for the masked
// clock walks (a nil mask means dense — observationally identical).
func maskedClock(acc Access) vclock.Masked {
	return vclock.Masked{V: acc.Clock, M: acc.ClockNZ}
}

// VWDetector implements the paper's detector.
//
// TickHomeOnWrite controls whether a write-apply increments the home
// component of the area clock, modelling the reception as an event of the
// home node exactly as the figures do (Fig. 5: P1 moving to 110 after m1).
//
// The tick costs recall. Scored against verify.GroundTruth on the golden
// random workload (4 procs, 6 areas, 60 ops per proc, seeds 1–20), this
// detector's precision is 1.000 but its recall is 0.88–0.93: it misses
// races, so it is not sound. The suspected cause is that the home component
// of an area clock shares its index with the home process's own event
// counter, so a tick the home process never observes can be reused by its
// own next event. ROADMAP.md's item "Is the paper's detector complete?"
// carries the counterexample and the open question.
// Disabling the tick gives the exact detector, whose verdicts coincide with
// pairwise ground truth — the E-T10 ablation quantifies the difference.
type VWDetector struct {
	// TickHomeOnWrite: see above. The paper's figures require true.
	TickHomeOnWrite bool
}

// NewVWDetector returns the detector configured as in the paper's figures.
func NewVWDetector() *VWDetector { return &VWDetector{TickHomeOnWrite: true} }

// NewExactVWDetector returns the variant without the home tick, whose
// flags match exact pairwise ground truth.
func NewExactVWDetector() *VWDetector { return &VWDetector{TickHomeOnWrite: false} }

// Name implements Detector.
func (d *VWDetector) Name() string {
	if d.TickHomeOnWrite {
		return "vw"
	}
	return "vw-exact"
}

// NewAreaState implements Detector.
func (d *VWDetector) NewAreaState(n int) AreaState {
	return &vwAreaState{
		det:  d,
		v:    vclock.NewMasked(n),
		w:    vclock.NewMasked(n),
		wIsV: false,
	}
}

// vwAreaState is the paper's per-area detection state — the general-purpose
// clock V and the write clock W (§IV-A) — maintained allocation-free in
// steady state and sublinear in cluster size on communication-local
// workloads:
//
//   - V and W carry occupancy masks (vclock.Masked): every clock walk
//     skips spans both sides can prove zero, so an area touched by k of the
//     n processes costs O(k) per access, not O(n).
//   - W is a copy-on-write alias of V: a write sets W = V conceptually
//     (Algorithm 5), which the state records as a flag instead of a copy.
//     The stored W bytes are materialised only when a later read is about
//     to diverge V from W.
//   - The write path is compare-then-fold: the order decides whether the
//     fold is a block copy (covering writer), a no-op (covered writer) or —
//     only when racing — a snapshot plus a real merge.
//   - Last-access context for report quality is stored by value in
//     state-owned buffers, so reports borrow rather than allocate.
type vwAreaState struct {
	det *VWDetector
	v   vclock.Masked
	// w holds the write clock's storage. When wIsV is set the logical W
	// equals V and w's contents are stale.
	w    vclock.Masked
	wIsV bool
	// elide: see core.AbsorbElider.
	elide bool

	// lastWrite and lastRead provide Prior context in reports; their Clock
	// and Locks fields point into the state-owned buffers below.
	lastWrite, lastRead       Access
	hasLastWrite, hasLastRead bool
	lwClock, lrClock          vclock.Masked
	lwLocks, lrLocks          []int

	// scratch backs returned reports (borrowed; see AreaState.OnAccess).
	scratch ReportScratch
}

// EnableAbsorbElision implements AbsorbElider.
func (s *vwAreaState) EnableAbsorbElision() { s.elide = true }

// wClock returns the logical write clock, honouring the copy-on-write alias.
func (s *vwAreaState) wClock() vclock.Masked {
	if s.wIsV {
		return s.v
	}
	return s.w
}

// OnAccess implements AreaState: Algorithm 1 (writes) and Algorithm 2
// (reads), with the clock updates of Algorithms 4–5 folded in.
func (s *vwAreaState) OnAccess(acc Access, home int, absorb vclock.Masked) (*Report, vclock.Masked) {
	var rep *Report
	in := maskedClock(acc)
	switch acc.Kind {
	case Write:
		// Algorithm 3 classifies the writer against V, then Algorithm 4
		// folds it in — and the fold's shape follows from the order, so
		// each pass stays cheap: a covering writer (After, which
		// lock-disciplined traffic produces on nearly every write) replaces
		// V with a masked block copy, a covered writer (Before/Equal)
		// changes nothing, and only the racing case pays for the pre-merge
		// snapshot a report must show plus a real merge — and there the
		// compare early-exited the moment both directions were seen.
		ord := in.Compare(s.v)
		switch ord {
		case vclock.Concurrent: // CheckWrite
			rep = s.report(acc, s.v.V, s.conflictContext(in))
			s.v.Merge(in)
		case vclock.After:
			s.v = in.CopyInto(s.v)
		}
		// Count the write as an event of the home node (Algorithm 5) and
		// advance the write clock: W = V is recorded as an alias, not a
		// copy.
		if s.det.TickHomeOnWrite {
			s.v.Tick(home)
		}
		s.wIsV = true
		s.setLast(&s.lastWrite, &s.lwClock, &s.lwLocks, &s.hasLastWrite, acc)
		// The initiator absorbs the merged clock on the ack (production
		// mode; the runtime decides whether to apply it). A covering writer
		// with no home tick already *is* the merged clock: elide as covered.
		if s.elide && !s.det.TickHomeOnWrite && (ord == vclock.After || ord == vclock.Equal) {
			return rep, vclock.Masked{Covered: true}
		}
		return rep, s.v.CopyInto(absorb)
	default: // Read
		// Reads mark the access clock but are not write events: no home
		// tick, no W update. While W aliases V, one comparison against V
		// answers every question at once — is the read racing W(=V)
		// (CheckRead, Algorithm 3), must W diverge, and is the reply's W
		// already covered by the reader. A covering reader replaces V
		// outright: W adopts V's old buffer (its correct value) and V
		// becomes a copy of the reader's clock.
		covered := false
		if s.wIsV {
			ord := in.Compare(s.v)
			switch ord {
			case vclock.Concurrent: // CheckRead
				rep = s.report(acc, s.v.V, s.priorWrite())
				s.w = s.v.CopyInto(s.w)
				s.wIsV = false
				s.v.Merge(in)
			case vclock.After:
				// max(V, in) = in: swap the buffers instead of copying V
				// aside and merging.
				s.v, s.w = s.w, s.v
				s.v = in.CopyInto(s.v)
				s.wIsV = false
			}
			// in ≥ W(=V before any divergence): absorbing W is a no-op.
			covered = ord == vclock.After || ord == vclock.Equal
		} else {
			ord := in.Compare(s.w)
			if ord == vclock.Concurrent { // CheckRead
				rep = s.report(acc, s.w.V, s.priorWrite())
			}
			s.v.Merge(in)
			covered = ord == vclock.After || ord == vclock.Equal
		}
		s.setLast(&s.lastRead, &s.lrClock, &s.lrLocks, &s.hasLastRead, acc)
		// The reply carries W: the reader absorbs the clock of the write it
		// observed (reads-from edge) — elided as covered when the reader
		// provably observed that write already.
		if s.elide && covered {
			return rep, vclock.Masked{Covered: true}
		}
		return rep, s.wClock().CopyInto(absorb)
	}
}

// setLast records acc into a state-owned last-access slot, copying its
// clock (and mask) and held-lock list into the slot's buffers so the
// caller's are not retained.
func (s *vwAreaState) setLast(slot *Access, clk *vclock.Masked, locks *[]int, has *bool, acc Access) {
	*clk = maskedClock(acc).CopyInto(*clk)
	*slot = acc
	slot.Clock = clk.V
	slot.ClockNZ = clk.M
	slot.Locks = CopyLocks(locks, acc.Locks)
	*has = true
}

// priorWrite returns the last write as report context, or nil.
func (s *vwAreaState) priorWrite() *Access {
	if s.hasLastWrite {
		return &s.lastWrite
	}
	return nil
}

// conflictContext picks the most useful prior access to attach to a write
// race: a concurrent prior write if one is known, else a concurrent prior
// read, else whichever access is recorded.
func (s *vwAreaState) conflictContext(in vclock.Masked) *Access {
	if s.hasLastWrite && in.ConcurrentWith(s.lwClock) {
		return &s.lastWrite
	}
	if s.hasLastRead && in.ConcurrentWith(s.lrClock) {
		return &s.lastRead
	}
	if s.hasLastWrite {
		return &s.lastWrite
	}
	if s.hasLastRead {
		return &s.lastRead
	}
	return nil
}

// report builds a race report in the state's scratch. stored is the
// pre-update area clock acc was checked against and prior a pointer into the
// last-access slots; the scratch snapshots both, because the same OnAccess
// call overwrites them on its way out.
func (s *vwAreaState) report(acc Access, stored vclock.VC, prior *Access) *Report {
	return s.scratch.Fill(s.det.Name(), acc, stored, prior)
}

// StorageBytes implements AreaState: two vector clocks — the paper's
// "drawback ... it doubles the necessary amount of memory" (§IV-D) — plus
// their occupancy masks (8 bytes per 64 components each). The copy-on-write
// alias is an implementation detail; the modelled cost keeps both clocks.
func (s *vwAreaState) StorageBytes() int {
	return 2 * s.v.StorageBytes()
}

// Clocks exposes copies of (V, W) for the literal protocol's get_clock /
// get_clock_W operations and for tests.
func (s *vwAreaState) Clocks() (v, w vclock.VC) {
	return s.v.V.Copy(), s.wClock().V.Copy()
}

// SetClocks overwrites the stored clocks — the literal protocol's put_clock
// after the initiator computed max_clock locally. Raw clock writes carry no
// masks, so the stored masks saturate (dense fallback).
func (s *vwAreaState) SetClocks(v, w vclock.VC) {
	if s.wIsV {
		// Break the alias first: a partial update must not drag the other
		// clock along.
		s.w = s.v.CopyInto(s.w)
		s.wIsV = false
	}
	if v != nil {
		s.v = vclock.Dense(v).CopyInto(s.v)
	}
	if w != nil {
		s.w = vclock.Dense(w).CopyInto(s.w)
	}
}

// ClockAccessor is implemented by clock-based area states that support the
// literal protocol's remote clock read/write primitives.
type ClockAccessor interface {
	Clocks() (v, w vclock.VC)
	SetClocks(v, w vclock.VC)
}

var _ ClockAccessor = (*vwAreaState)(nil)
