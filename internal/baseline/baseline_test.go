package baseline

import (
	"slices"
	"testing"

	"dsmrace/internal/core"
	"dsmrace/internal/vclock"
)

func acc(proc int, seq uint64, kind core.AccessKind, clk ...uint64) core.Access {
	return core.Access{Proc: proc, Seq: seq, Kind: kind, Clock: vclock.VC(clk)}
}

func accL(proc int, kind core.AccessKind, locks []int, clk ...uint64) core.Access {
	return core.Access{Proc: proc, Kind: kind, Clock: vclock.VC(clk), Locks: locks}
}

func TestSingleClockFalsePositiveOnConcurrentReads(t *testing.T) {
	// The exact contrast of Fig. 4 / §IV-D: concurrent read-only accesses.
	single := NewSingleClock().NewAreaState(3)
	vw := core.NewVWDetector().NewAreaState(3)

	init := acc(1, 1, core.Write, 0, 1, 0)
	r0 := acc(0, 1, core.Read, 1, 2, 0)
	r2 := acc(2, 1, core.Read, 0, 2, 1)

	for _, st := range []core.AreaState{single, vw} {
		if rep, _ := st.OnAccess(init, 1, vclock.Masked{}); rep != nil {
			t.Fatal("init must not race")
		}
		if rep, _ := st.OnAccess(r0, 1, vclock.Masked{}); rep != nil {
			t.Fatal("first read must not race under either detector")
		}
	}
	rep, _ := single.OnAccess(r2, 1, vclock.Masked{})
	if rep == nil {
		t.Fatal("single-clock must flag the second concurrent read (false positive)")
	}
	rep2, _ := vw.OnAccess(r2, 1, vclock.Masked{})
	if rep2 != nil {
		t.Fatal("vw must not flag concurrent reads")
	}
}

func TestSingleClockStillCatchesTrueRaces(t *testing.T) {
	st := NewSingleClock().NewAreaState(3)
	st.OnAccess(acc(0, 1, core.Write, 1, 0, 0), 1, vclock.Masked{})
	rep, _ := st.OnAccess(acc(2, 1, core.Write, 0, 0, 1), 1, vclock.Masked{})
	if rep == nil {
		t.Fatal("single-clock must detect Fig. 5(a)")
	}
	if rep.Detector != "single-clock" {
		t.Fatalf("detector name = %q", rep.Detector)
	}
}

func TestSingleClockStorageHalvesVW(t *testing.T) {
	n := 8
	s := NewSingleClock().NewAreaState(n).StorageBytes()
	v := core.NewVWDetector().NewAreaState(n).StorageBytes()
	if 2*s != v {
		t.Fatalf("single=%d vw=%d, want half", s, v)
	}
}

func TestSingleClockClockAccessor(t *testing.T) {
	ca := NewSingleClock().NewAreaState(2).(core.ClockAccessor)
	ca.SetClocks(vclock.VC{4, 0}, nil)
	v, w := ca.Clocks()
	if v.String() != "40" || w.String() != "40" {
		t.Fatalf("clocks = %s %s", v, w)
	}
	ca.SetClocks(nil, vclock.VC{5, 5})
	v, _ = ca.Clocks()
	if v.String() != "55" {
		t.Fatalf("W-only update must hit the single clock: %s", v)
	}
}

func TestNopNeverReports(t *testing.T) {
	st := Nop{}.NewAreaState(4)
	for i := 0; i < 10; i++ {
		rep, clk := st.OnAccess(acc(i%2, uint64(i), core.Write, 1, 0, 0, 0), 0, vclock.Masked{})
		if rep != nil || !clk.IsNil() {
			t.Fatal("nop must stay silent")
		}
	}
	if st.StorageBytes() != 0 {
		t.Fatal("nop must store nothing")
	}
	if (Nop{}).Name() != "off" {
		t.Fatal("name")
	}
}

func TestLocksetDisciplinedProgramClean(t *testing.T) {
	st := NewLockset().NewAreaState(2)
	// Two processes alternating under the same lock 7.
	seq := []core.Access{
		accL(0, core.Write, []int{7}, 1, 0),
		accL(1, core.Write, []int{7}, 0, 1),
		accL(0, core.Read, []int{7}, 2, 0),
		accL(1, core.Write, []int{7, 9}, 0, 2),
	}
	for i, a := range seq {
		if rep, _ := st.OnAccess(a, 0, vclock.Masked{}); rep != nil {
			t.Fatalf("disciplined access %d reported: %v", i, rep)
		}
	}
}

func TestLocksetDetectsUnlockedSharing(t *testing.T) {
	st := NewLockset().NewAreaState(2)
	st.OnAccess(accL(0, core.Write, nil, 1, 0), 0, vclock.Masked{})
	rep, _ := st.OnAccess(accL(1, core.Write, nil, 0, 1), 0, vclock.Masked{})
	if rep == nil {
		t.Fatal("unlocked write-write sharing must be reported")
	}
	// Eraser reports once per area.
	rep2, _ := st.OnAccess(accL(0, core.Write, nil, 2, 1), 0, vclock.Masked{})
	if rep2 != nil {
		t.Fatal("lockset must report an area at most once")
	}
}

func TestLocksetReadSharingIsClean(t *testing.T) {
	st := NewLockset().NewAreaState(3)
	st.OnAccess(accL(0, core.Write, nil, 1, 0, 0), 0, vclock.Masked{}) // init, exclusive
	st.OnAccess(accL(1, core.Read, nil, 0, 1, 0), 0, vclock.Masked{})  // shared
	rep, _ := st.OnAccess(accL(2, core.Read, nil, 0, 0, 1), 0, vclock.Masked{})
	if rep != nil {
		t.Fatal("read-only sharing must not be reported")
	}
}

func TestLocksetExclusivePhaseIgnoresLocks(t *testing.T) {
	// Initialisation by one process without locks is fine (virgin/exclusive).
	st := NewLockset().NewAreaState(2)
	for i := 0; i < 5; i++ {
		if rep, _ := st.OnAccess(accL(0, core.Write, nil, uint64(i+1), 0), 0, vclock.Masked{}); rep != nil {
			t.Fatal("exclusive-phase accesses must not be reported")
		}
	}
}

func TestLocksetIntersectionRefinement(t *testing.T) {
	st := NewLockset().NewAreaState(2)
	st.OnAccess(accL(0, core.Write, []int{1, 2}, 1, 0), 0, vclock.Masked{})
	// Second process shares only lock 2 — still protected.
	if rep, _ := st.OnAccess(accL(1, core.Write, []int{2, 3}, 0, 1), 0, vclock.Masked{}); rep != nil {
		t.Fatal("common lock 2 still held")
	}
	// Now an access under disjoint lock 9: intersection empties.
	rep, _ := st.OnAccess(accL(0, core.Write, []int{9}, 2, 1), 0, vclock.Masked{})
	if rep == nil {
		t.Fatal("emptied lockset must be reported")
	}
	// The prior access's locks are a snapshot, not a window onto the
	// last-locks buffer this very access has just overwritten.
	if rep.Prior == nil || !slices.Equal(rep.Prior.Locks, []int{2, 3}) {
		t.Fatalf("prior = %+v, want P1's access under locks [2 3]", rep.Prior)
	}
}

func TestLocksetTimingInsensitiveFalsePositive(t *testing.T) {
	// Barrier-style synchronisation without locks: the accesses are causally
	// ordered (no true race) but lockset still complains — its documented
	// weakness, measured in E-T3.
	st := NewLockset().NewAreaState(2)
	st.OnAccess(accL(0, core.Write, nil, 1, 0), 0, vclock.Masked{})
	rep, _ := st.OnAccess(accL(1, core.Write, nil, 2, 1), 0, vclock.Masked{}) // causally after
	if rep == nil {
		t.Fatal("lockset is timing-insensitive and must (falsely) report here")
	}
}

func TestEpochWriteWriteRace(t *testing.T) {
	st := NewEpoch().NewAreaState(3)
	st.OnAccess(acc(0, 1, core.Write, 1, 0, 0), 1, vclock.Masked{})
	rep, _ := st.OnAccess(acc(2, 1, core.Write, 0, 0, 1), 1, vclock.Masked{})
	if rep == nil {
		t.Fatal("epoch must detect Fig. 5(a) write-write race")
	}
	if rep.Detector != "epoch" {
		t.Fatalf("name = %s", rep.Detector)
	}
}

func TestEpochOrderedWritesClean(t *testing.T) {
	st := NewEpoch().NewAreaState(2)
	st.OnAccess(acc(0, 1, core.Write, 1, 0), 0, vclock.Masked{})
	// P1 absorbed P0's write (clock 1,1 dominates epoch 1@0).
	if rep, _ := st.OnAccess(acc(1, 1, core.Write, 1, 1), 0, vclock.Masked{}); rep != nil {
		t.Fatalf("ordered write raced: %v", rep)
	}
}

func TestEpochReadWriteRaces(t *testing.T) {
	st := NewEpoch().NewAreaState(2)
	st.OnAccess(acc(0, 1, core.Write, 1, 0), 0, vclock.Masked{})
	rep, _ := st.OnAccess(acc(1, 1, core.Read, 0, 1), 0, vclock.Masked{})
	if rep == nil {
		t.Fatal("read concurrent with write must race")
	}
	st2 := NewEpoch().NewAreaState(2)
	st2.OnAccess(acc(0, 1, core.Read, 1, 0), 0, vclock.Masked{})
	rep, _ = st2.OnAccess(acc(1, 1, core.Write, 0, 1), 0, vclock.Masked{})
	if rep == nil {
		t.Fatal("write concurrent with read must race")
	}
}

func TestEpochConcurrentReadsBenignAndInflate(t *testing.T) {
	st := NewEpoch().NewAreaState(3)
	before := st.StorageBytes()
	if rep, _ := st.OnAccess(acc(0, 1, core.Read, 1, 0, 0), 1, vclock.Masked{}); rep != nil {
		t.Fatal("read must not race")
	}
	if rep, _ := st.OnAccess(acc(2, 1, core.Read, 0, 0, 1), 1, vclock.Masked{}); rep != nil {
		t.Fatal("concurrent reads must not race under epoch either")
	}
	if st.StorageBytes() <= before {
		t.Fatal("concurrent reads must inflate the read vector")
	}
	// A write concurrent with one of the reads must still be caught after
	// inflation.
	rep, _ := st.OnAccess(acc(1, 1, core.Write, 1, 1, 0), 1, vclock.Masked{}) // covers P0's read, not P2's
	if rep == nil {
		t.Fatal("write concurrent with an inflated read must race")
	}
}

func TestEpochSameEpochFastPathKeepsStorageFlat(t *testing.T) {
	st := NewEpoch().NewAreaState(4)
	clk := vclock.New(4)
	base := st.StorageBytes()
	for i := 0; i < 20; i++ {
		clk.Tick(1)
		if rep, _ := st.OnAccess(core.Access{Proc: 1, Kind: core.Read, Clock: clk.Copy()}, 0, vclock.Masked{}); rep != nil {
			t.Fatal("sequential reads race-free")
		}
	}
	if st.StorageBytes() != base {
		t.Fatal("same-epoch reads must not inflate")
	}
}

func TestDetectorNames(t *testing.T) {
	if NewSingleClock().Name() != "single-clock" || NewLockset().Name() != "lockset" || NewEpoch().Name() != "epoch" {
		t.Fatal("names changed — tables depend on them")
	}
}
