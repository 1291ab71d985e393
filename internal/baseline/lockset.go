package baseline

import (
	"sort"

	"dsmrace/internal/core"
	"dsmrace/internal/vclock"
)

// Lockset is an Eraser-style detector adapted to the DSM model: instead of
// tracking happens-before it checks that every shared area is consistently
// protected by at least one common user-level lock. It follows Eraser's
// state machine (virgin → exclusive → shared → shared-modified) so that
// initialisation and read-sharing do not trigger reports.
//
// Locksets are insensitive to timing: they flag *potential* races even when
// the schedule happened to order the accesses — which yields false
// positives for programs synchronised without locks (e.g. barrier-phased
// codes) and is exactly the behavioural contrast the E-T3 table shows.
type Lockset struct{}

// NewLockset returns the lockset baseline.
func NewLockset() *Lockset { return &Lockset{} }

// Name implements core.Detector.
func (Lockset) Name() string { return "lockset" }

// NewAreaState implements core.Detector.
func (Lockset) NewAreaState(n int) core.AreaState {
	return &locksetState{phase: lsVirgin}
}

type lsPhase int

const (
	lsVirgin lsPhase = iota
	lsExclusive
	lsShared
	lsSharedModified
)

type locksetState struct {
	phase lsPhase
	owner int
	// candidates is the intersection of lock sets seen so far; nil means
	// "all locks" (no constraining access yet). Kept sorted and refined in
	// place, so steady-state accesses do not allocate.
	candidates []int
	hasCands   bool
	reported   bool // Eraser reports each area at most once
	// heldBuf is scratch for the sorted copy of acc.Locks.
	heldBuf []int
	// Last-access context stored by value, in state-owned buffers.
	last      core.Access
	hasLast   bool
	lastClock vclock.VC
	lastLocks []int
}

// intersectInPlace filters a down to its intersection with b (both sorted).
// The write index never passes the read index, so a's storage is reused.
func intersectInPlace(a []int, b []int) []int {
	k, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			a[k] = a[i]
			k++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return a[:k]
}

func (s *locksetState) OnAccess(acc core.Access, home int, absorb vclock.Masked) (*core.Report, vclock.Masked) {
	s.heldBuf = append(s.heldBuf[:0], acc.Locks...)
	held := s.heldBuf
	sort.Ints(held)

	switch s.phase {
	case lsVirgin:
		s.phase = lsExclusive
		s.owner = acc.Proc
	case lsExclusive:
		if acc.Proc != s.owner {
			if acc.Kind == core.Read {
				s.phase = lsShared
			} else {
				s.phase = lsSharedModified
			}
			s.candidates = append(s.candidates[:0], held...)
			s.hasCands = true
		}
	case lsShared:
		if acc.Kind == core.Write {
			s.phase = lsSharedModified
		}
		s.refine(held)
	case lsSharedModified:
		s.refine(held)
	}

	var rep *core.Report
	if s.phase == lsSharedModified && s.hasCands && len(s.candidates) == 0 && !s.reported {
		s.reported = true
		var prior *core.Access
		if s.hasLast {
			prior = &s.last
		}
		// The area's only report: its scratch needs no slot in the state.
		var scratch core.ReportScratch
		rep = scratch.Fill("lockset", acc, nil, prior)
	}
	s.lastClock = acc.Clock.CopyInto(s.lastClock)
	s.lastLocks = append(s.lastLocks[:0], acc.Locks...)
	s.last = acc
	s.last.Clock = s.lastClock
	s.last.ClockNZ = nil // the caller's mask aliases its scratch; drop it
	s.last.Locks = s.lastLocks
	s.hasLast = true
	return rep, vclock.Masked{}
}

func (s *locksetState) refine(held []int) {
	if !s.hasCands {
		s.candidates = append(s.candidates[:0], held...)
		s.hasCands = true
		return
	}
	s.candidates = intersectInPlace(s.candidates, held)
}

// StorageBytes: phase byte + candidate lock ids (8 bytes each).
func (s *locksetState) StorageBytes() int { return 1 + 8*len(s.candidates) }
