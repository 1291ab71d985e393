package core

import (
	"slices"
	"testing"

	"dsmrace/internal/vclock"
)

func TestClockInternDedups(t *testing.T) {
	var tab clockIntern
	a := vclock.VC{1, 2, 3}
	b := vclock.VC{1, 2, 3}
	c := vclock.VC{4, 5, 6}
	ia := tab.get(a)
	ib := tab.get(b)
	ic := tab.get(c)
	if &ia[0] != &ib[0] {
		t.Error("equal clocks not shared")
	}
	if &ia[0] == &ic[0] {
		t.Error("distinct clocks shared")
	}
	if got := tab.get(nil); got != nil {
		t.Errorf("intern(nil) = %v", got)
	}
	if tab.unique != 2 || tab.refs != 3 {
		t.Errorf("unique=%d refs=%d, want 2/3", tab.unique, tab.refs)
	}
	if tab.bytes != 2*3*8 || tab.naive != 3*3*8 {
		t.Errorf("bytes=%d naive=%d, want 48/72", tab.bytes, tab.naive)
	}
	// The canonical copy must not alias the caller's buffer.
	a[0] = 99
	if ia[0] != 1 {
		t.Error("interned snapshot aliases the input buffer")
	}
}

// TestClockInternTable walks the open-addressed table and the slab arena
// through the states a long racy run puts them in.
func TestClockInternTable(t *testing.T) {
	// clock i of length n: scrambled components (splitmix64), because FNV
	// over small counters is close to a perfect hash and would never chain.
	mk := func(i, n int) vclock.VC {
		c := make(vclock.VC, n)
		for j := range c {
			x := uint64(i*n+j+1) * 0x9e3779b97f4a7c15
			x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
			x = (x ^ x>>27) * 0x94d049bb133111eb
			c[j] = x ^ x>>31
		}
		return c
	}
	// unaliased holds when the snapshots still read as the values they were
	// made from (an overlapping carve would have overwritten one), are capped
	// at their length, and appending to one leaves the rest alone.
	unaliased := func(t *testing.T, snaps []vclock.VC, n int) {
		t.Helper()
		for i, s := range snaps {
			if cap(s) != len(s) {
				t.Fatalf("snapshot %d: cap %d != len %d", i, cap(s), len(s))
			}
			_ = append(s, ^uint64(0))
		}
		for i, s := range snaps {
			if !slices.Equal(s, mk(i, n)) {
				t.Fatalf("snapshot %d corrupted: %v", i, s)
			}
		}
	}

	t.Run("identity survives grow", func(t *testing.T) {
		var tab clockIntern
		const n, count = 4, 3 * internMinTable // several doublings
		snaps := make([]vclock.VC, count)
		for i := range snaps {
			snaps[i] = tab.get(mk(i, n))
		}
		if len(tab.table) <= internMinTable {
			t.Fatalf("table never grew: %d slots", len(tab.table))
		}
		for i, s := range snaps {
			if again := tab.get(mk(i, n)); &again[0] != &s[0] {
				t.Fatalf("clock %d re-interned after grow", i)
			}
		}
		if tab.unique != count || tab.refs != 2*count || tab.bytes != 8*n*count {
			t.Errorf("unique=%d refs=%d bytes=%d", tab.unique, tab.refs, tab.bytes)
		}
		unaliased(t, snaps, n)
	})

	t.Run("slab rollover", func(t *testing.T) {
		var tab clockIntern
		const n = 48 // does not divide slabWords: every slab ends in a gap
		count := 3*slabWords/n + 1
		snaps := make([]vclock.VC, count)
		first := tab.get(mk(0, n))
		retired := &tab.slab[:1][0]
		snaps[0] = first
		for i := 1; i < count; i++ {
			snaps[i] = tab.get(mk(i, n))
		}
		if &tab.slab[:1][0] == retired {
			t.Fatal("slab never rolled over")
		}
		if &first[0] != retired {
			t.Fatal("first snapshot does not sit at the head of the first slab")
		}
		unaliased(t, snaps, n)
	})

	t.Run("empty and nil", func(t *testing.T) {
		var tab clockIntern
		if got := tab.get(nil); got != nil || tab.refs != 0 {
			t.Fatalf("get(nil) = %v, refs %d", got, tab.refs)
		}
		a, b := tab.get(vclock.VC{}), tab.get(make(vclock.VC, 0, 8))
		if a == nil || b == nil || len(a) != 0 || len(b) != 0 {
			t.Fatalf("empty clocks interned as %v, %v; want empty, non-nil", a, b)
		}
		if tab.unique != 1 || tab.refs != 2 || tab.bytes != 0 {
			t.Errorf("unique=%d refs=%d bytes=%d, want 1/2/0", tab.unique, tab.refs, tab.bytes)
		}
		// An empty clock at the very end of a full slab is still non-nil.
		tab = clockIntern{}
		tab.get(mk(1, slabWords))
		if e := tab.get(vclock.VC{}); e == nil || cap(e) != 0 {
			t.Errorf("empty clock on a full slab = %v (cap %d)", e, cap(e))
		}
	})

	t.Run("longer than a slab", func(t *testing.T) {
		var tab clockIntern
		small := tab.get(mk(1, 3))
		const n = slabWords + 17
		big := tab.get(mk(2, n))
		after := tab.get(mk(3, 3))
		if !slices.Equal(big, mk(2, n)) || cap(big) != n {
			t.Fatalf("long clock: len %d cap %d", len(big), cap(big))
		}
		if again := tab.get(mk(2, n)); &again[0] != &big[0] {
			t.Error("long clock not deduplicated")
		}
		if !slices.Equal(small, mk(1, 3)) || !slices.Equal(after, mk(3, 3)) {
			t.Error("neighbours of the long clock corrupted")
		}
	})

	t.Run("probe chains", func(t *testing.T) {
		// Two slots to start with: every doubling up to 512 slots runs at
		// three-quarters load, so most inserts and lookups walk a chain.
		tab := clockIntern{table: make([]internEntry, 2)}
		const n, count = 2, 300
		snaps := make([]vclock.VC, count)
		for i := range snaps {
			snaps[i] = tab.get(mk(i, n))
		}
		chained := 0
		for i, e := range tab.table {
			if e.snap != nil && int(e.hash&uint64(len(tab.table)-1)) != i {
				chained++
			}
		}
		if chained == 0 {
			t.Fatal("no entry sits off its home slot; the test forces nothing")
		}
		for i, s := range snaps {
			if again := tab.get(mk(i, n)); &again[0] != &s[0] {
				t.Fatalf("clock %d not deduplicated through its probe chain", i)
			}
		}
		if tab.unique != count {
			t.Errorf("unique = %d, want %d", tab.unique, count)
		}
	})
}

// TestCloneInternedMatchesClone pins the equivalence that keeps report-hash
// fingerprints safe: a report the collector interned in place renders
// identically to a deep clone and retains nothing it borrowed.
func TestCloneInternedMatchesClone(t *testing.T) {
	prior := &Access{Proc: 1, Seq: 4, Kind: Write, Clock: vclock.VC{0, 7}, Locks: []int{2}}
	r := Report{
		Detector:    "vw",
		Area:        3,
		Current:     Access{Proc: 0, Seq: 9, Kind: Read, Clock: vclock.VC{5, 1}, ClockNZ: vclock.Mask{1}},
		StoredClock: vclock.VC{4, 7},
		Prior:       prior,
	}
	var col Collector
	col.Signal(r)
	col.Signal(r)
	a, b, c := r.Clone(), col.Reports()[0], col.Reports()[1]
	if a.String() != b.String() {
		t.Errorf("interned clone renders differently:\n%s\n%s", a.String(), b.String())
	}
	if b.Current.ClockNZ != nil || b.Prior == prior || b.Prior == c.Prior ||
		&b.Prior.Locks[0] == &prior.Locks[0] || &b.StoredClock[0] == &r.StoredClock[0] {
		t.Error("interned clone retains borrowed structure")
	}
	// Shared storage across reports with equal clocks.
	if &b.StoredClock[0] != &c.StoredClock[0] || &b.Prior.Clock[0] != &c.Prior.Clock[0] {
		t.Error("repeated interned clones do not share storage")
	}
}

// TestCollectorSignalAfterReports: flattening hands the chunk storage over to
// the returned slice, so a later Signal must open a fresh chunk — never write
// into, or reorder behind, a slice a caller already holds.
func TestCollectorSignalAfterReports(t *testing.T) {
	var col Collector
	signal := func(seq int) {
		col.Signal(Report{Current: Access{Seq: uint64(seq), Clock: vclock.VC{uint64(seq)}}})
	}
	seqs := func(rs []Report) []uint64 {
		out := make([]uint64, len(rs))
		for i, r := range rs {
			out[i] = r.Current.Seq
		}
		return out
	}
	want := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i)
		}
		return out
	}
	n := 0
	var held [][]Report
	// Flatten mid-chunk, on a chunk boundary, and twice in a row.
	for _, upTo := range []int{3, reportChunk, reportChunk, 2*reportChunk + 5} {
		for ; n < upTo; n++ {
			signal(n)
		}
		rs := col.Reports()
		if len(rs) != n || cap(rs) != n {
			t.Fatalf("after %d signals: len %d cap %d", n, len(rs), cap(rs))
		}
		if len(col.chunks) != 1 || &col.chunks[0][0] != &rs[0] {
			t.Fatalf("after %d signals: reports held in %d chunks beside the flat slice", n, len(col.chunks))
		}
		held = append(held, rs)
	}
	signal(n)
	for _, rs := range held {
		if !slices.Equal(seqs(rs), want(len(rs))) {
			t.Errorf("slice of %d returned earlier changed: %v", len(rs), seqs(rs))
		}
	}
	if got := seqs(col.Reports()); !slices.Equal(got, want(n+1)) {
		t.Errorf("order lost after Signal following Reports: %v", got)
	}
}

func TestCollectorInternStats(t *testing.T) {
	mk := func(noIntern bool) *Collector {
		col := &Collector{NoIntern: noIntern}
		stored := vclock.VC{9, 9, 9, 9}
		priorClock := vclock.VC{1, 0, 0, 0}
		for i := 0; i < 100; i++ {
			cur := vclock.VC{0, uint64(i + 1), 0, 0} // unique per report
			col.Signal(Report{
				Detector:    "vw",
				Current:     Access{Proc: 1, Seq: uint64(i), Kind: Read, Clock: cur},
				StoredClock: stored, // identical across all reports
				Prior:       &Access{Proc: 0, Seq: 1, Kind: Write, Clock: priorClock},
			})
		}
		return col
	}
	a, b := mk(false), mk(true)
	ra, rb := a.Reports(), b.Reports()
	if len(ra) != len(rb) {
		t.Fatalf("report counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].String() != rb[i].String() {
			t.Fatalf("report %d differs between interned and plain collectors", i)
		}
	}
	st := a.InternStats()
	// 300 clock fields stored, but only 102 distinct values (one stored
	// clock, one prior clock, 100 current clocks).
	if st.Refs != 300 || st.Unique != 102 {
		t.Errorf("refs=%d unique=%d, want 300/102", st.Refs, st.Unique)
	}
	if st.Bytes*2 >= st.NaiveBytes {
		t.Errorf("interning saved too little: %d of %d naive bytes", st.Bytes, st.NaiveBytes)
	}
	if zero := b.InternStats(); zero != (InternStats{}) {
		t.Errorf("NoIntern collector tracked stats: %+v", zero)
	}
}

// TestCollectorInternBoundedByLimit: reports streamed to OnReport past the
// storage limit must not grow the intern table — it tracks exactly the
// stored reports.
func TestCollectorInternBoundedByLimit(t *testing.T) {
	streamed := 0
	col := &Collector{Limit: 2, OnReport: func(Report) { streamed++ }}
	for i := 0; i < 50; i++ {
		col.Signal(Report{
			Current:     Access{Proc: 0, Seq: uint64(i), Clock: vclock.VC{uint64(i), 1}},
			StoredClock: vclock.VC{7, uint64(i)},
		})
	}
	if streamed != 50 || col.Total() != 50 {
		t.Fatalf("streamed=%d total=%d, want 50/50", streamed, col.Total())
	}
	st := col.InternStats()
	if st.Refs != 4 { // 2 stored reports x 2 clock fields (no Prior)
		t.Errorf("refs = %d, want 4 (only stored reports interned)", st.Refs)
	}
}
