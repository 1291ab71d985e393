package baseline

import (
	"dsmrace/internal/core"
	"dsmrace/internal/vclock"
)

// SingleClock is the paper's detector with the write-clock refinement
// removed: one general-purpose clock per area, used for both read and write
// checks. It is sound but reports concurrent read-only accesses as races —
// the false positives §IV-D says the W clock eliminates.
type SingleClock struct {
	// TickHomeOnWrite mirrors core.VWDetector.
	TickHomeOnWrite bool
}

// NewSingleClock returns the single-clock baseline configured like the
// paper's detector.
func NewSingleClock() *SingleClock { return &SingleClock{TickHomeOnWrite: true} }

// Name implements core.Detector.
func (d *SingleClock) Name() string { return "single-clock" }

// NewAreaState implements core.Detector.
func (d *SingleClock) NewAreaState(n int) core.AreaState {
	return &singleState{det: d, v: vclock.NewMasked(n)}
}

type singleState struct {
	det     *SingleClock
	v       vclock.Masked
	last    core.Access
	hasLast bool
	// lastClock and lastLocks are the state-owned buffers backing the
	// retained last access; scratch backs returned reports (see
	// core.AreaState.OnAccess).
	lastClock vclock.Masked
	lastLocks []int
	scratch   core.ReportScratch
}

func (s *singleState) OnAccess(acc core.Access, home int, absorb vclock.Masked) (*core.Report, vclock.Masked) {
	var rep *core.Report
	in := vclock.Masked{V: acc.Clock, M: acc.ClockNZ}
	// Compare-then-fold, as in the vw detector: the pre-merge snapshot a
	// report must show is only taken on the racing path, and a covering
	// access folds in as a block copy.
	ord := in.Compare(s.v)
	if ord == vclock.Concurrent {
		var prior *core.Access
		if s.hasLast {
			prior = &s.last
		}
		rep = s.scratch.Fill(s.det.Name(), acc, s.v.V, prior)
		s.v.Merge(in)
	} else if ord == vclock.After {
		s.v = in.CopyInto(s.v)
	}
	if acc.Kind == core.Write && s.det.TickHomeOnWrite {
		s.v.Tick(home)
	}
	s.lastClock = in.CopyInto(s.lastClock)
	s.last = acc
	s.last.Clock = s.lastClock.V
	s.last.ClockNZ = s.lastClock.M
	s.last.Locks = core.CopyLocks(&s.lastLocks, acc.Locks)
	s.hasLast = true
	return rep, s.v.CopyInto(absorb)
}

func (s *singleState) StorageBytes() int { return s.v.StorageBytes() }

// Clocks implements core.ClockAccessor: with a single clock, V and W are
// the same clock.
func (s *singleState) Clocks() (v, w vclock.VC) { return s.v.V.Copy(), s.v.V.Copy() }

// SetClocks implements core.ClockAccessor.
func (s *singleState) SetClocks(v, w vclock.VC) {
	if v != nil {
		s.v = vclock.Dense(v).CopyInto(s.v)
	} else if w != nil {
		s.v = vclock.Dense(w).CopyInto(s.v)
	}
}

// Nop detects nothing. Running workloads under Nop gives the cost floor the
// overhead tables (E-T2, E-T4) compare against.
type Nop struct{}

// Name implements core.Detector.
func (Nop) Name() string { return "off" }

// NewAreaState implements core.Detector.
func (Nop) NewAreaState(n int) core.AreaState { return nopState{} }

type nopState struct{}

func (nopState) OnAccess(acc core.Access, home int, absorb vclock.Masked) (*core.Report, vclock.Masked) {
	return nil, vclock.Masked{}
}
func (nopState) StorageBytes() int { return 0 }
