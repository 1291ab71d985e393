package baseline

import (
	"dsmrace/internal/core"
	"dsmrace/internal/vclock"
)

// Epoch is a FastTrack-style detector adapted to the DSM model: the write
// history of an area is summarised by a single epoch (the last writer's
// process id and its component value) instead of a full vector clock, and
// the read history stays an epoch until two causally unrelated reads force
// inflation to a full vector. It detects the same write-involved races as
// the paper's detector on this model but stores O(1) bytes per area in the
// common case — the space/precision trade-off row of table E-T10.
type Epoch struct{}

// NewEpoch returns the epoch baseline.
func NewEpoch() *Epoch { return &Epoch{} }

// Name implements core.Detector.
func (Epoch) Name() string { return "epoch" }

// NewAreaState implements core.Detector.
func (Epoch) NewAreaState(n int) core.AreaState {
	return &epochState{n: n}
}

// epoch is (clock value, process) — FastTrack's c@t.
type epoch struct {
	clk  uint64
	proc int
}

// happensBefore reports e ⊑ k: the event the epoch denotes is covered by k.
func (e epoch) happensBefore(k vclock.VC) bool {
	return e.clk <= k[e.proc]
}

func (e epoch) isZero() bool { return e.clk == 0 }

type epochState struct {
	n        int
	w        epoch     // last write epoch
	r        epoch     // last read epoch (when not inflated)
	rv       vclock.VC // inflated read vector, nil until needed
	homeTick uint64    // counts write events at the home, mirroring the VW home tick

	// Last-access context stored by value in state-owned buffers; reports
	// live in scratch (see core.AreaState.OnAccess).
	lastW, lastR       core.Access
	hasLastW, hasLastR bool
	lwClock, lrClock   vclock.VC
	lwLocks, lrLocks   []int
	scratch            core.ReportScratch
}

// setLast records acc into a last-access slot, copying its clock and
// held-lock list into the slot's state-owned buffers.
func (s *epochState) setLast(slot *core.Access, clk *vclock.VC, locks *[]int, has *bool, acc core.Access) {
	*clk = acc.Clock.CopyInto(*clk)
	*slot = acc
	slot.Clock = *clk
	slot.ClockNZ = nil // the caller's mask aliases its scratch; drop it
	slot.Locks = core.CopyLocks(locks, acc.Locks)
	*has = true
}

func (s *epochState) OnAccess(acc core.Access, home int, absorb vclock.Masked) (*core.Report, vclock.Masked) {
	var rep *core.Report
	mk := func(prior *core.Access, has bool) *core.Report {
		if !has {
			prior = nil
		}
		return s.scratch.Fill("epoch", acc, nil, prior)
	}
	switch acc.Kind {
	case core.Write:
		// write-write race: last write not covered by k.
		if !s.w.isZero() && !s.w.happensBefore(acc.Clock) {
			rep = mk(&s.lastW, s.hasLastW)
		}
		// write-read races: any recorded read not covered by k.
		if rep == nil {
			if s.rv != nil {
				if !acc.Clock.Dominates(s.rv) {
					rep = mk(&s.lastR, s.hasLastR)
				}
			} else if !s.r.isZero() && !s.r.happensBefore(acc.Clock) {
				rep = mk(&s.lastR, s.hasLastR)
			}
		}
		s.w = epoch{clk: acc.Clock[acc.Proc], proc: acc.Proc}
		s.r = epoch{}
		s.rv = nil
		s.homeTick++
		s.setLast(&s.lastW, &s.lwClock, &s.lwLocks, &s.hasLastW, acc)
	default: // Read
		if !s.w.isZero() && !s.w.happensBefore(acc.Clock) {
			rep = mk(&s.lastW, s.hasLastW)
		}
		me := epoch{clk: acc.Clock[acc.Proc], proc: acc.Proc}
		switch {
		case s.rv != nil:
			if me.clk > s.rv[me.proc] {
				s.rv[me.proc] = me.clk
			}
		case s.r.isZero() || s.r.happensBefore(acc.Clock):
			// same-epoch fast path: the new read covers the old one.
			s.r = me
		default:
			// two concurrent reads: inflate to a read vector.
			s.rv = vclock.New(s.n)
			s.rv[s.r.proc] = s.r.clk
			if me.clk > s.rv[me.proc] {
				s.rv[me.proc] = me.clk
			}
			s.r = epoch{}
		}
		s.setLast(&s.lastR, &s.lrClock, &s.lrLocks, &s.hasLastR, acc)
	}
	return rep, vclock.Masked{}
}

// StorageBytes: two epochs (12 bytes each modelled) plus the read vector
// when inflated.
func (s *epochState) StorageBytes() int {
	b := 24
	if s.rv != nil {
		b += s.rv.WireSize()
	}
	return b
}
