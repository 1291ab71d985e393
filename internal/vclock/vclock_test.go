package vclock

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	v := New(5)
	if !v.IsZero() {
		t.Fatalf("New(5) = %v, want all zeros", v)
	}
	if v.Len() != 5 {
		t.Fatalf("Len = %d, want 5", v.Len())
	}
}

func TestTickAndSum(t *testing.T) {
	v := New(3)
	v.Tick(0)
	v.Tick(2)
	v.Tick(2)
	if got := v.Sum(); got != 3 {
		t.Fatalf("Sum = %d, want 3", got)
	}
	if v[0] != 1 || v[1] != 0 || v[2] != 2 {
		t.Fatalf("after ticks v = %v", v)
	}
}

func TestCopyIsIndependent(t *testing.T) {
	v := VC{1, 2, 3}
	c := v.Copy()
	c.Tick(0)
	if v[0] != 1 {
		t.Fatalf("Copy aliases original: %v", v)
	}
}

func TestCompareTable(t *testing.T) {
	cases := []struct {
		a, b VC
		want Order
	}{
		{VC{}, VC{}, Equal},
		{VC{0, 0}, VC{0, 0}, Equal},
		{VC{1, 0}, VC{1, 0}, Equal},
		{VC{0, 0}, VC{1, 0}, Before},
		{VC{1, 0}, VC{1, 1}, Before},
		{VC{1, 1}, VC{1, 0}, After},
		{VC{2, 0}, VC{0, 0}, After},
		{VC{1, 0}, VC{0, 1}, Concurrent},
		// The pair from Fig. 5(a): 110 × 001.
		{VC{1, 1, 0}, VC{0, 0, 1}, Concurrent},
		// The pair from Fig. 5(b): 132 arrives at a node holding 130.
		{VC{1, 3, 2}, VC{1, 3, 0}, After},
		// The pair from Fig. 5(c): 2022 × 1100.
		{VC{2, 0, 2, 2}, VC{1, 1, 0, 0}, Concurrent},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareSymmetry(t *testing.T) {
	inv := map[Order]Order{Equal: Equal, Concurrent: Concurrent, Before: After, After: Before}
	f := func(a8, b8 [6]uint8) bool {
		a, b := New(6), New(6)
		for i := range a8 {
			a[i], b[i] = uint64(a8[i]%4), uint64(b8[i]%4)
		}
		return Compare(b, a) == inv[Compare(a, b)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComparePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compare on mismatched sizes did not panic")
		}
	}()
	Compare(VC{1}, VC{1, 2})
}

func TestMergeIsLUB(t *testing.T) {
	// Property: merged clock dominates both inputs and is the least such
	// clock (component-wise max).
	f := func(a8, b8 [5]uint8) bool {
		a, b := New(5), New(5)
		for i := range a8 {
			a[i], b[i] = uint64(a8[i]), uint64(b8[i])
		}
		m := Merged(a, b)
		if !m.Dominates(a) || !m.Dominates(b) {
			return false
		}
		for i := range m {
			if m[i] != max(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeIdempotentCommutativeAssociative(t *testing.T) {
	f := func(a8, b8, c8 [4]uint8) bool {
		a, b, c := New(4), New(4), New(4)
		for i := range a8 {
			a[i], b[i], c[i] = uint64(a8[i]), uint64(b8[i]), uint64(c8[i])
		}
		if !reflect.DeepEqual(Merged(a, a), a) {
			return false
		}
		if !reflect.DeepEqual(Merged(a, b), Merged(b, a)) {
			return false
		}
		return reflect.DeepEqual(Merged(Merged(a, b), c), Merged(a, Merged(b, c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHappensBeforeTransitivity(t *testing.T) {
	// Build chains by ticking/merging and verify transitivity of the order.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 4
		a := New(n)
		for i := 0; i < rng.Intn(5); i++ {
			a.Tick(rng.Intn(n))
		}
		b := a.Copy()
		b.Tick(rng.Intn(n))
		c := b.Copy()
		c.Tick(rng.Intn(n))
		if !HappensBefore(a, b) || !HappensBefore(b, c) {
			t.Fatalf("chain construction broken: %v %v %v", a, b, c)
		}
		if !HappensBefore(a, c) {
			t.Fatalf("transitivity violated: %v < %v < %v but not %v < %v", a, b, c, a, c)
		}
	}
}

func TestConcurrentWithAndDominates(t *testing.T) {
	a, b := VC{1, 0}, VC{0, 1}
	if !ConcurrentWith(a, b) {
		t.Fatal("expected concurrency")
	}
	if a.Dominates(b) || b.Dominates(a) {
		t.Fatal("concurrent clocks must not dominate each other")
	}
	m := Merged(a, b)
	if !m.Dominates(a) || !m.Dominates(b) {
		t.Fatal("merge must dominate both")
	}
	if !a.Dominates(a.Copy()) {
		t.Fatal("Dominates must be reflexive")
	}
}

func TestStringFormats(t *testing.T) {
	if got := (VC{1, 1, 0}).String(); got != "110" {
		t.Errorf("compact String = %q, want 110", got)
	}
	if got := (VC{12, 3, 0}).String(); got != "[12 3 0]" {
		t.Errorf("wide String = %q, want [12 3 0]", got)
	}
	if got := (VC{}).String(); got != "" {
		t.Errorf("empty String = %q, want empty", got)
	}
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{
		Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent", Order(42): "Order(42)",
	} {
		if got := o.String(); got != want {
			t.Errorf("Order(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(a8 [9]uint8) bool {
		v := New(9)
		for i := range a8 {
			v[i] = uint64(a8[i]) << (uint(i) % 5 * 8)
		}
		data, err := v.MarshalBinary()
		if err != nil {
			return false
		}
		if len(data) != v.WireSize() {
			return false
		}
		var got VC
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return reflect.DeepEqual(got, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var v VC
	if err := v.UnmarshalBinary(nil); err == nil {
		t.Error("nil buffer should fail")
	}
	if err := v.UnmarshalBinary([]byte{0, 3, 1, 2}); err == nil {
		t.Error("truncated buffer should fail")
	}
}

func TestWireRoundTrip(t *testing.T) {
	f := func(vals [8]uint8, marks uint8) bool {
		// Mark a random superset of the nonzero components: set bits over
		// zero values must survive the trip too.
		m := NewMasked(8)
		for i, x := range vals {
			if x >= 128 {
				m.V[i] = uint64(x)
			}
			if m.V[i] != 0 || marks&(1<<i) != 0 {
				m.M.Set(i)
			}
		}
		enc := m.AppendWire(nil)
		got, n, err := DecodeWire(enc)
		if err != nil || n != len(enc) || n != m.WireLen() {
			return false
		}
		return reflect.DeepEqual(got.V, m.V) && string(got.AppendWire(nil)) == string(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseSmallerThanFixedForSparseClock(t *testing.T) {
	m := NewMasked(64)
	m.Tick(3)
	if got, want := m.WireLen(), 2+8+8; got != want {
		t.Fatalf("one live component of 64: %d bytes, want %d (header, bitmap, one value)", got, want)
	}
	if m.WireLen() >= m.V.WireSize() {
		t.Fatalf("sparse %d bytes, fixed %d bytes — sparse should win for one live component", m.WireLen(), m.V.WireSize())
	}
	// A dense clock and a clock whose bitmap costs more than it saves ship
	// fixed: the format never costs more than 2+8n.
	if got := Dense(m.V).WireLen(); got != m.V.WireSize() {
		t.Errorf("dense clock: %d bytes, want the fixed %d", got, m.V.WireSize())
	}
	small := NewMasked(1)
	small.Tick(0)
	if got := small.WireLen(); got != small.V.WireSize() {
		t.Errorf("1-component clock: %d bytes, want the fixed %d", got, small.V.WireSize())
	}
	if got := (Masked{Covered: true}).WireLen(); got != 2 {
		t.Errorf("covered marker: %d bytes, want 2", got)
	}
	if got := (Masked{}).WireLen(); got != 0 {
		t.Errorf("no clock: %d bytes, want 0", got)
	}
}

func TestDecodeWireErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte{0}},
		{"truncated fixed", []byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 1}},
		{"truncated bitmap", []byte{0x80, 3, 0, 0, 0}},
		{"bit past the clock", []byte{0x80, 3, 0, 0, 0, 0, 0, 0, 0, 8}},
		{"truncated values", []byte{0x80, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0}},
	} {
		if _, _, err := DecodeWire(tc.data); err == nil {
			t.Errorf("%s: %x decoded without error", tc.name, tc.data)
		}
	}
	got, n, err := DecodeWire([]byte{0x80, 0, 0xAA})
	if err != nil || n != 2 || !got.Covered {
		t.Errorf("covered marker decoded as %+v, %d, %v", got, n, err)
	}
}

func TestTruncateLosesConcurrencyInformation(t *testing.T) {
	// The E-T9 ablation in miniature: clocks that differ only beyond the
	// truncation point become falsely ordered/equal — exactly why
	// Charron-Bost's bound says size must be ≥ n.
	a := VC{1, 0, 0, 1}
	b := VC{1, 0, 1, 0}
	if Compare(a, b) != Concurrent {
		t.Fatal("full clocks must be concurrent")
	}
	ta, tb := a.Truncate(2), b.Truncate(2)
	if Compare(ta, tb) != Equal {
		t.Fatalf("truncated clocks compare %v, want (falsely) equal", Compare(ta, tb))
	}
	if got := a.Truncate(10); got.Len() != 4 {
		t.Fatalf("Truncate beyond length: len=%d, want 4", got.Len())
	}
}
