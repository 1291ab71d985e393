package vclock

import (
	"bytes"
	"math/rand"
	"testing"
)

// randMasked builds a random masked clock of n components: sparse (few
// nonzero components), dense-valued, or dense-wrapped (nil mask), so the
// suite exercises every mask shape including saturation.
func randMasked(r *rand.Rand, n int) Masked {
	m := NewMasked(n)
	switch r.Intn(3) {
	case 0: // sparse
		for k := r.Intn(4); k > 0; k-- {
			i := r.Intn(n)
			m.V[i] = uint64(r.Intn(100))
			m.M.Set(i)
		}
	case 1: // dense values, exact mask
		for i := range m.V {
			if r.Intn(3) > 0 {
				m.V[i] = uint64(r.Intn(100))
				m.M.Set(i)
			}
		}
	default: // dense wrapper (nil mask)
		v := New(n)
		for i := range v {
			v[i] = uint64(r.Intn(100))
		}
		return Dense(v)
	}
	// Over-approximate sometimes: a set bit over a zero component is legal.
	if r.Intn(2) == 0 {
		m.M.Set(r.Intn(n))
	}
	return m
}

// randExact builds a random masked clock of n components whose mask is
// exact: a bit is set if and only if its component is nonzero.
func randExact(r *rand.Rand, n int) Masked {
	m := NewMasked(n)
	for k := r.Intn(n + 1); k > 0; k-- {
		i := r.Intn(n)
		m.V[i] = uint64(1 + r.Intn(100))
		m.M.Set(i)
	}
	return m
}

// isExact reports whether m's mask marks exactly its nonzero components.
func isExact(m Masked) bool {
	if m.M == nil {
		return false
	}
	for i, x := range m.V {
		if (x != 0) != m.M.Has(i) {
			return false
		}
	}
	return true
}

// refWireLen is the wire size of an exactly-masked clock computed from its
// dense value alone: the smaller of the fixed form and the sparse form
// shipping every nonzero component.
func refWireLen(v VC) int {
	nz := 0
	for _, x := range v {
		if x != 0 {
			nz++
		}
	}
	return min(v.WireSize(), 2+8*MaskWords(len(v))+8*nz)
}

var maskedSizes = []int{1, 3, 63, 64, 65, 130, 256}

// TestMaskedObservationalEquivalence drives random operation sequences
// against a masked clock and a plain dense shadow and requires identical
// values and identical orders at every step — the contract that lets the
// detectors swap representations without moving a single verdict.
func TestMaskedObservationalEquivalence(t *testing.T) {
	for _, n := range maskedSizes {
		r := rand.New(rand.NewSource(int64(n)))
		m := NewMasked(n)
		shadow := New(n)
		var cp Masked // CopyInto target, reused to exercise buffer recycling
		for step := 0; step < 400; step++ {
			o := randMasked(r, n)
			oShadow := o.V.Copy()
			switch r.Intn(5) {
			case 0:
				i := r.Intn(n)
				m.Tick(i)
				shadow.Tick(i)
			case 1:
				m.Merge(o)
				shadow.Merge(oShadow)
			case 2:
				got := m.MergeAndCompare(o)
				want := shadow.MergeAndCompare(oShadow)
				if got != want {
					t.Fatalf("n=%d step %d: MergeAndCompare = %v, dense says %v", n, step, got, want)
				}
			case 3:
				got := m.Compare(o)
				want := Compare(shadow, oShadow)
				if got != want {
					t.Fatalf("n=%d step %d: Compare = %v, dense says %v", n, step, got, want)
				}
			case 4:
				cp = m.CopyInto(cp)
				if !bytes.Equal(vcBytes(cp.V), vcBytes(shadow)) {
					t.Fatalf("n=%d step %d: CopyInto diverged\n got %v\nwant %v", n, step, cp.V, shadow)
				}
				if !cp.CheckInvariant() {
					t.Fatalf("n=%d step %d: copy mask missed a nonzero component", n, step)
				}
			}
			if !bytes.Equal(vcBytes(m.V), vcBytes(shadow)) {
				t.Fatalf("n=%d step %d: values diverged\n got %v\nwant %v", n, step, m.V, shadow)
			}
			if !m.CheckInvariant() {
				t.Fatalf("n=%d step %d: mask invariant violated: %v / %b", n, step, m.V, m.M)
			}
			if dec, _, err := DecodeWire(m.AppendWire(nil)); err != nil || !bytes.Equal(vcBytes(dec.V), vcBytes(shadow)) {
				t.Fatalf("n=%d step %d: wire round trip = %v (%v), dense says %v", n, step, dec.V, err, shadow)
			}
			if got, fixed := m.WireLen(), shadow.WireSize(); got > fixed {
				t.Fatalf("n=%d step %d: WireLen = %d exceeds the fixed %d", n, step, got, fixed)
			}
			if got, want := m.ConcurrentWith(o), ConcurrentWith(m.V, oShadow); got != want {
				t.Fatalf("n=%d step %d: ConcurrentWith = %v, dense says %v", n, step, got, want)
			}
			if got, want := m.Dominates(o), m.V.Dominates(oShadow); got != want {
				t.Fatalf("n=%d step %d: Dominates = %v, dense says %v", n, step, got, want)
			}
		}
	}
}

func vcBytes(v VC) []byte { return v.AppendBinary(nil) }

// TestMaskedSaturation pins the dense-fallback path: merging a dense
// (nil-mask) source saturates the target's mask, and operations keep
// matching the dense implementation afterwards.
func TestMaskedSaturation(t *testing.T) {
	const n = 130
	m := NewMasked(n)
	m.Tick(7)
	dense := New(n)
	for i := range dense {
		dense[i] = uint64(i % 5)
	}
	shadow := m.V.Copy()
	m.Merge(Dense(dense))
	shadow.Merge(dense)
	if !bytes.Equal(vcBytes(m.V), vcBytes(shadow)) {
		t.Fatalf("dense merge diverged: %v vs %v", m.V, shadow)
	}
	for w := range m.M {
		if m.M[w] != denseMaskWord(w, n) {
			t.Fatalf("mask word %d = %b after dense merge, want saturated", w, m.M[w])
		}
	}
	// Saturated masked clock must still agree with dense ops.
	o := NewMasked(n)
	o.Tick(2)
	if got, want := m.Compare(o), Compare(shadow, o.V); got != want {
		t.Fatalf("saturated Compare = %v, want %v", got, want)
	}
}

// TestMaskedCopyIntoReZeroes pins the subtle case: copying a sparse clock
// over a previously-denser destination must zero the blocks the source does
// not own.
func TestMaskedCopyIntoReZeroes(t *testing.T) {
	const n = 200
	big := NewMasked(n)
	for i := 0; i < n; i += 3 {
		big.V[i] = uint64(i + 1)
		big.M.Set(i)
	}
	small := NewMasked(n)
	small.Tick(5)
	dst := big.Copy()
	dst = small.CopyInto(dst)
	if !bytes.Equal(vcBytes(dst.V), vcBytes(small.V)) {
		t.Fatalf("CopyInto left stale components:\n got %v\nwant %v", dst.V, small.V)
	}
	if !dst.CheckInvariant() {
		t.Fatal("mask invariant violated after overwrite")
	}
}

// TestMaskedTickAllocFree verifies the hot mutators never allocate.
func TestMaskedTickAllocFree(t *testing.T) {
	m := NewMasked(256)
	o := NewMasked(256)
	o.Tick(3)
	if avg := testing.AllocsPerRun(100, func() {
		m.Tick(9)
		m.Merge(o)
		m.MergeAndCompare(o)
		_ = m.Compare(o)
	}); avg > 0 {
		t.Errorf("masked hot ops allocate %.2f/op, want 0", avg)
	}
}

// FuzzMaskedEquivalence feeds arbitrary operation scripts to the masked
// implementation and a plain-slice shadow driven by the per-element
// reference (kernels_test.go) in lockstep — the dense operations share the
// masked ones' kernels, so they cannot be the oracle. Bit 2 of an op byte
// picks an exactly-masked operand; while every operand so far was exact,
// the clock (and a copy of it) must stay exact and its wire size must be
// the one its dense value dictates.
func FuzzMaskedEquivalence(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(130), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint8(65), []byte{255, 0, 255, 0, 17})
	f.Fuzz(func(t *testing.T, size uint8, script []byte) {
		n := int(size)
		if n == 0 {
			n = 1
		}
		r := rand.New(rand.NewSource(int64(len(script))))
		m := NewMasked(n)
		shadow := New(n)
		for _, op := range script {
			o := randMasked(r, n)
			oShadow := o.V.Copy()
			switch op % 4 {
			case 0:
				m.Tick(int(op) % n)
				shadow.Tick(int(op) % n)
			case 1:
				m.Merge(o)
				refMerge(shadow, oShadow)
			case 2:
				if got, want := m.MergeAndCompare(o), refMergeAndCompare(shadow, oShadow); got != want {
					t.Fatalf("MergeAndCompare = %v, reference says %v", got, want)
				}
			case 3:
				if got, want := m.Compare(o), refCompare(shadow, oShadow); got != want {
					t.Fatalf("Compare = %v, reference says %v", got, want)
				}
			}
			if !bytes.Equal(vcBytes(m.V), vcBytes(shadow)) {
				t.Fatalf("values diverged: %v vs %v", m.V, shadow)
			}
			if !m.CheckInvariant() {
				t.Fatal("mask invariant violated")
			}
		}
	})
}
