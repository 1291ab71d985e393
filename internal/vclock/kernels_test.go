package vclock

import (
	"math/rand"
	"slices"
	"testing"
)

// The per-element reference the kernels are held to. Masked and dense
// operations share the block kernels, so comparing one against the other
// (the shadow suite's original oracle) no longer proves either right; these
// three loops are the definitions, written to be read, not to be fast.

func refCompare(a, b []uint64) Order {
	less, greater := false, false
	for i := range a {
		if a[i] < b[i] {
			less = true
		}
		if a[i] > b[i] {
			greater = true
		}
	}
	switch {
	case less && greater:
		return Concurrent
	case less:
		return Before
	case greater:
		return After
	}
	return Equal
}

func refMerge(dst, src []uint64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// refMergeAndCompare folds src into dst and returns the order src held
// against dst's previous contents.
func refMergeAndCompare(dst, src []uint64) Order {
	ord := refCompare(src, dst)
	refMerge(dst, src)
	return ord
}

// edgeValues are the components any signed-difference or narrowing shortcut
// gets wrong: both ends of the range and both sides of the sign bit.
var edgeValues = [8]uint64{0, 1, 2, 1<<63 - 1, 1 << 63, 1<<63 + 1, 1<<64 - 2, 1<<64 - 1}

// Mask shapes the walkers distinguish.
const (
	maskNil       = iota // dense wrapper
	maskExact            // bit set iff the component is nonzero (empty for a zero clock)
	maskOver             // exact plus stray bits over zero components
	maskSaturated        // every valid bit set
	maskShapes
)

func maskFor(v VC, shape int, stray uint64) Mask {
	if shape == maskNil {
		return nil
	}
	m := make(Mask, MaskWords(len(v)))
	switch shape {
	case maskSaturated:
		m.Fill(len(v))
	default:
		for i, x := range v {
			if x != 0 || (shape == maskOver && stray>>(uint(i)&63)&1 != 0) {
				m.Set(i)
			}
		}
	}
	return m
}

// arms records which inner loop of the masked walkers a check exercised.
type arms struct{ dense, sparse bool }

func (s *arms) note(am, bm Mask, n int) {
	for w := 0; w < MaskWords(n); w++ {
		if u := am.word(w, n) | bm.word(w, n); u != 0 {
			if denseBlock(u, w, n) {
				s.dense = true
			} else {
				s.sparse = true
			}
		}
	}
}

// checkAgainstReference holds every compare/merge entry point — the bare
// kernels, the dense API and the masked API under the given masks — to the
// per-element reference on the pair (a, b).
func checkAgainstReference(t *testing.T, a, b VC, am, bm Mask) {
	t.Helper()
	want := refCompare(a, b)
	merged := a.Copy()
	wantFold := refMergeAndCompare(merged, b)

	if got := orderOf(cmpBlock(a, b)); got != want {
		t.Fatalf("cmpBlock(%v, %v) = %v, want %v", a, b, got, want)
	}
	d := a.Copy()
	maxBlock(d, b)
	if !slices.Equal(d, merged) {
		t.Fatalf("maxBlock(%v, %v) = %v, want %v", a, b, d, merged)
	}
	d = a.Copy()
	if got := orderOf(maxCmpBlock(d, b)); got != wantFold || !slices.Equal(d, merged) {
		t.Fatalf("maxCmpBlock(%v, %v) = %v / %v, want %v / %v", a, b, got, d, wantFold, merged)
	}

	if got := Compare(a, b); got != want {
		t.Fatalf("Compare(%v, %v) = %v, want %v", a, b, got, want)
	}
	d = a.Copy()
	d.Merge(b)
	if !slices.Equal(d, merged) {
		t.Fatalf("%v.Merge(%v) = %v, want %v", a, b, d, merged)
	}
	d = a.Copy()
	if got := d.MergeAndCompare(b); got != wantFold || !slices.Equal(d, merged) {
		t.Fatalf("%v.MergeAndCompare(%v) = %v / %v, want %v / %v", a, b, got, d, wantFold, merged)
	}
	if got := MergeInto(nil, a, b); !slices.Equal(got, merged) {
		t.Fatalf("MergeInto(nil, %v, %v) = %v, want %v", a, b, got, merged)
	}
	d = a.Copy()
	if got := MergeInto(d, d, b); !slices.Equal(got, merged) {
		t.Fatalf("MergeInto(a, a, b) on (%v, %v) = %v, want %v", a, b, got, merged)
	}
	d = b.Copy()
	if got := MergeInto(d, a, d); !slices.Equal(got, merged) {
		t.Fatalf("MergeInto(b, a, b) on (%v, %v) = %v, want %v", a, b, got, merged)
	}

	mb := Masked{V: b, M: bm}
	fresh := func() Masked { return Masked{V: a.Copy(), M: slices.Clone(am)} }
	if got := fresh().Compare(mb); got != want {
		t.Fatalf("masked Compare(%v/%b, %v/%b) = %v, want %v", a, am, b, bm, got, want)
	}
	m := fresh()
	m.Merge(mb)
	if !slices.Equal(m.V, merged) || !m.CheckInvariant() {
		t.Fatalf("masked Merge(%v/%b, %v/%b) = %v/%b, want %v", a, am, b, bm, m.V, m.M, merged)
	}
	m = fresh()
	if got := m.MergeAndCompare(mb); got != wantFold || !slices.Equal(m.V, merged) || !m.CheckInvariant() {
		t.Fatalf("masked MergeAndCompare(%v/%b, %v/%b) = %v / %v/%b, want %v / %v",
			a, am, b, bm, got, m.V, m.M, wantFold, merged)
	}
}

// TestKernelsMatchReference walks every length 0..130 (every block tail on
// both sides of the one- and two-word boundaries) through equal, one-sided
// and mixed pairs of edge values, at densities that reach both the dense and
// the bit-scan arm of the masked walkers, under every pairing of mask shapes.
func TestKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var seen arms
	for n := 0; n <= 130; n++ {
		for _, live := range []int{0, 1, 3, n / 2, n} { // nonzero components, at most
			for relation := 0; relation < 4; relation++ {
				a, b := New(n), New(n)
				for k := 0; k < live && n > 0; k++ {
					i := r.Intn(n)
					x, y := edgeValues[r.Intn(8)], edgeValues[r.Intn(8)]
					switch relation {
					case 0: // equal
						y = x
					case 1: // a ≤ b
						x, y = min(x, y), max(x, y)
					case 2: // a ≥ b
						x, y = max(x, y), min(x, y)
					}
					a[i], b[i] = x, y
				}
				stray := r.Uint64()
				for as := 0; as < maskShapes; as++ {
					for bs := 0; bs < maskShapes; bs++ {
						am, bm := maskFor(a, as, stray), maskFor(b, bs, stray>>7)
						seen.note(am, bm, n)
						checkAgainstReference(t, a, b, am, bm)
					}
				}
			}
		}
	}
	if !seen.dense || !seen.sparse {
		t.Fatalf("table reached dense arm: %v, bit-scan arm: %v; want both", seen.dense, seen.sparse)
	}
}

// FuzzKernelsMatchReference lets the fuzzer pick the length, the component
// pattern (one byte per component, indexing edgeValues) and the mask shapes.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add(uint8(0), []byte{}, []byte{}, uint8(0), uint64(0))
	f.Add(uint8(5), []byte{0, 1, 2, 3, 4}, []byte{4, 3, 2, 1, 0}, uint8(0b0101), uint64(0))
	f.Add(uint8(65), []byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 3}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 4}, uint8(0b1001), ^uint64(0))
	f.Add(uint8(130), []byte{3, 4, 5}, []byte{4, 3, 5}, uint8(0b0110), uint64(0xF0F0))
	f.Fuzz(func(t *testing.T, size uint8, rawA, rawB []byte, shapes uint8, stray uint64) {
		n := int(size) % 131
		mk := func(raw []byte) VC {
			v := New(n)
			for i := range v {
				if len(raw) > 0 {
					v[i] = edgeValues[raw[i%len(raw)]&7]
				}
			}
			return v
		}
		a, b := mk(rawA), mk(rawB)
		am := maskFor(a, int(shapes&3), stray)
		bm := maskFor(b, int(shapes>>2&3), stray>>7)
		checkAgainstReference(t, a, b, am, bm)
	})
}
