package vclock

import "testing"

// The detection hot path leans on these primitives staying allocation-free
// in steady state (scratch buffers already at size); regressions here show
// up as per-access garbage in every detector.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, fn); avg != 0 {
		t.Errorf("%s allocates %.1f times per run, want 0", name, avg)
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	const n = 64
	a, b := New(n), New(n)
	for i := 0; i < n; i++ {
		a[i] = uint64(i)
		b[i] = uint64(n - i)
	}
	dst := New(n)
	scratch := New(n)
	buf := make([]byte, 0, a.WireSize())

	assertZeroAllocs(t, "cmpBlock", func() { _, _ = cmpBlock(a, b) })
	assertZeroAllocs(t, "maxBlock", func() { maxBlock(scratch, b) })
	assertZeroAllocs(t, "maxCmpBlock", func() { _, _ = maxCmpBlock(scratch, a) })
	assertZeroAllocs(t, "Compare", func() { _ = Compare(a, b) })
	assertZeroAllocs(t, "Merge", func() { scratch.Merge(b) })
	assertZeroAllocs(t, "MergeInto", func() { dst = MergeInto(dst, a, b) })
	assertZeroAllocs(t, "CopyInto", func() { scratch = a.CopyInto(scratch) })
	assertZeroAllocs(t, "MergeAndCompare", func() {
		scratch = a.CopyInto(scratch)
		_ = scratch.MergeAndCompare(b)
	})
	assertZeroAllocs(t, "AppendBinary", func() { buf = a.AppendBinary(buf[:0]) })
	sparse := NewMasked(256)
	sparse.Tick(9)
	assertZeroAllocs(t, "WireLen", func() { _ = sparse.WireLen() })
}

func TestCopyIntoGrowsAndAliases(t *testing.T) {
	src := VC{3, 1, 4, 1, 5}
	got := src.CopyInto(nil)
	if Compare(got, src) != Equal {
		t.Fatalf("CopyInto(nil) = %v, want %v", got, src)
	}
	got[0] = 99
	if src[0] == 99 {
		t.Fatal("CopyInto result aliases the source")
	}
	small := VC{7}
	grown := src.CopyInto(small)
	if Compare(grown, src) != Equal {
		t.Fatalf("CopyInto(small) = %v, want %v", grown, src)
	}
}

func TestMergeInto(t *testing.T) {
	a, b := VC{1, 5, 0}, VC{2, 3, 0}
	got := MergeInto(nil, a, b)
	want := VC{2, 5, 0}
	if Compare(got, want) != Equal {
		t.Fatalf("MergeInto = %v, want %v", got, want)
	}
	if Compare(a, VC{1, 5, 0}) != Equal || Compare(b, VC{2, 3, 0}) != Equal {
		t.Fatal("MergeInto mutated an input")
	}
	// dst aliasing an input must still be correct.
	aliased := MergeInto(a, a, b)
	if Compare(aliased, want) != Equal {
		t.Fatalf("MergeInto(a, a, b) = %v, want %v", aliased, want)
	}
}

func TestMergeAndCompareMatchesSeparateOps(t *testing.T) {
	cases := [][2]VC{
		{{1, 2, 3}, {1, 2, 3}},
		{{1, 2, 3}, {2, 3, 4}},
		{{2, 3, 4}, {1, 2, 3}},
		{{5, 0, 0}, {0, 0, 5}},
		{{0, 0, 0}, {0, 0, 0}},
		{{7, 1, 2}, {7, 2, 1}},
	}
	for _, tc := range cases {
		v, o := tc[0].Copy(), tc[1]
		wantOrder := Compare(o, v)
		wantMerged := Merged(v, o)
		gotOrder := v.MergeAndCompare(o)
		if gotOrder != wantOrder {
			t.Errorf("MergeAndCompare(%v, %v) order = %v, want %v", tc[0], o, gotOrder, wantOrder)
		}
		if Compare(v, wantMerged) != Equal {
			t.Errorf("MergeAndCompare(%v, %v) merged = %v, want %v", tc[0], o, v, wantMerged)
		}
	}
}

func TestAppendBinaryMatchesMarshal(t *testing.T) {
	for _, v := range []VC{{}, {1}, {0, 1 << 40, 7}} {
		want, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got := v.AppendBinary(nil)
		if string(got) != string(want) {
			t.Errorf("AppendBinary(%v) = %x, want %x", v, got, want)
		}
		if len(got) != v.WireSize() {
			t.Errorf("AppendBinary(%v) wrote %d bytes, WireSize says %d", v, len(got), v.WireSize())
		}
	}
}

func TestWireLenMatchesAppendWire(t *testing.T) {
	sparse := NewMasked(130)
	sparse.Tick(0)
	sparse.Tick(129)
	sparse.M.Set(64) // a marked zero still ships
	full := NewMasked(4)
	for i := range full.V {
		full.Tick(i)
	}
	for _, m := range []Masked{{}, {Covered: true}, Dense(VC{}), Dense(VC{1, 2}), sparse, full, NewMasked(256)} {
		if got, want := m.WireLen(), len(m.AppendWire(nil)); got != want {
			t.Errorf("WireLen(%v/%b) = %d, encoder wrote %d", m.V, m.M, got, want)
		}
	}
}
