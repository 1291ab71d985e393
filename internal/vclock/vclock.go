package vclock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Order is the result of comparing two vector clocks under the Mattern
// partial order.
type Order int

// The four possible outcomes of Compare.
const (
	// Equal means both clocks are identical component-wise.
	Equal Order = iota
	// Before means the first clock happens-before the second (≤ everywhere,
	// < somewhere).
	Before
	// After means the second clock happens-before the first.
	After
	// Concurrent means neither ordering holds: the events are causally
	// unrelated. Corollary 1 of the paper: a concurrent pair that involves a
	// write is a race condition.
	Concurrent
)

// String returns a human-readable name for the order.
func (o Order) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// VC is a vector clock over a fixed number of processes. The zero-length
// clock is valid and compares Equal to itself.
//
// Component i counts the events observed from process i. The paper stores
// one general-purpose clock V and one write clock W per shared memory area.
type VC []uint64

// New returns a zeroed vector clock for n processes.
func New(n int) VC {
	if n < 0 {
		panic("vclock: negative size")
	}
	return make(VC, n)
}

// Len returns the number of components.
func (v VC) Len() int { return len(v) }

// Copy returns an independent copy of v.
func (v VC) Copy() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// CopyInto copies v into dst, reusing dst's storage when its capacity
// suffices, and returns the (possibly re-grown) destination. A nil dst
// behaves like Copy. This is the allocation-free variant the detection hot
// path uses to recycle scratch buffers across accesses.
func (v VC) CopyInto(dst VC) VC {
	if cap(dst) < len(v) {
		dst = make(VC, len(v))
	}
	dst = dst[:len(v)]
	copy(dst, v)
	return dst
}

// MergeInto stores max(a, b) into dst (Algorithm 4 without mutating either
// input), reusing dst's storage when possible, and returns the destination.
// dst may alias a or b.
func MergeInto(dst, a, b VC) VC {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vclock: merge size mismatch %d != %d", len(a), len(b)))
	}
	if cap(dst) < len(a) {
		dst = make(VC, len(a))
	}
	dst = dst[:len(a)]
	if len(dst) > 0 && &dst[0] == &b[0] {
		a, b = b, a // dst is b: fold a into it rather than overwrite it
	}
	copy(dst, a)
	maxBlock(dst, b)
	return dst
}

// MergeAndCompare folds o into v (v = max(v, o), Algorithm 4) and returns
// the order o held against v's *previous* value (Algorithm 3). Fusing the
// two walks halves the passes the detector makes per access: the race check
// and the clock update read the same components.
func (v VC) MergeAndCompare(o VC) Order {
	if len(v) != len(o) {
		panic(fmt.Sprintf("vclock: compare size mismatch %d != %d", len(v), len(o)))
	}
	return orderOf(maxCmpBlock(v, o))
}

// Tick increments component i — the paper's update_local_clock performed by
// process P_i before every event.
func (v VC) Tick(i int) {
	v[i]++
}

// Merge sets v to the component-wise maximum of v and o (Algorithm 4,
// max_clock). Clocks of different lengths cannot be merged.
func (v VC) Merge(o VC) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("vclock: merge size mismatch %d != %d", len(v), len(o)))
	}
	maxBlock(v, o)
}

// Merged returns a fresh clock equal to max(v, o) without mutating either.
func Merged(v, o VC) VC {
	c := v.Copy()
	c.Merge(o)
	return c
}

// Compare classifies the pair (v, o) under the Mattern partial order.
//
// The paper's Algorithm 3 writes the test with strict "<" on every
// component; Lemma 1 (Mattern's Theorem 10) actually requires the standard
// order: v < o iff v ≤ o component-wise and v ≠ o. That is what we implement;
// DESIGN.md records the deviation.
func Compare(v, o VC) Order {
	if len(v) != len(o) {
		panic(fmt.Sprintf("vclock: compare size mismatch %d != %d", len(v), len(o)))
	}
	var lt, gt uint64
	for len(v) > 0 {
		k := min(len(v), blockLen)
		l, g := cmpBlock(v[:k], o[:k])
		lt, gt = lt|l, gt|g
		if lt != 0 && gt != 0 {
			return Concurrent
		}
		v, o = v[k:], o[k:]
	}
	return orderOf(lt, gt)
}

// HappensBefore reports whether v happened-before o (strictly).
func HappensBefore(v, o VC) bool { return Compare(v, o) == Before }

// ConcurrentWith reports whether v and o are causally unrelated. Per
// Corollary 1 this is the race predicate once a write is involved.
func ConcurrentWith(v, o VC) bool { return Compare(v, o) == Concurrent }

// Dominates reports v ≥ o component-wise (o happened-before-or-equal v).
// The detector's check "incoming clock dominates the stored clock" uses this.
func (v VC) Dominates(o VC) bool {
	ord := Compare(v, o)
	return ord == After || ord == Equal
}

// IsZero reports whether every component is zero.
func (v VC) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Sum returns the sum of all components — a cheap progress metric used by
// the statistics harness.
func (v VC) Sum() uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

// String renders the clock the way the paper's figures do for small values:
// "110" for (1,1,0) when every component is a single digit, otherwise a
// bracketed list "[12 3 0]".
func (v VC) String() string {
	compact := true
	for _, x := range v {
		if x > 9 {
			compact = false
			break
		}
	}
	var b strings.Builder
	if compact {
		for _, x := range v {
			fmt.Fprintf(&b, "%d", x)
		}
		return b.String()
	}
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(']')
	return b.String()
}

// WireSize returns the number of bytes the clock occupies in the fixed
// binary encoding. Experiment E-T1 uses this to measure the storage overhead
// discussed in §IV-C/§V-A; transport accounting goes through Masked.WireLen,
// which picks the smaller of this and the sparse form.
func (v VC) WireSize() int { return fixedLen(len(v)) }

// MarshalBinary encodes the clock as a uint16 length followed by big-endian
// uint64 components.
func (v VC) MarshalBinary() ([]byte, error) {
	if len(v) > 0xFFFF {
		return nil, errors.New("vclock: too many components")
	}
	return v.AppendBinary(make([]byte, 0, v.WireSize())), nil
}

// AppendBinary appends the fixed binary encoding of v (the MarshalBinary
// format) to dst and returns the extended slice. Callers that recycle dst
// marshal without allocating; oversized clocks (> 65535 components) panic,
// matching New's contract that sizes are validated at construction.
func (v VC) AppendBinary(dst []byte) []byte {
	if len(v) > 0xFFFF {
		panic("vclock: too many components")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(v)))
	for _, x := range v {
		dst = binary.BigEndian.AppendUint64(dst, x)
	}
	return dst
}

// UnmarshalBinary decodes a clock written by MarshalBinary.
func (v *VC) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return errors.New("vclock: short buffer")
	}
	n := int(binary.BigEndian.Uint16(data))
	if len(data) < 2+8*n {
		return errors.New("vclock: truncated clock")
	}
	c := make(VC, n)
	for i := range c {
		c[i] = binary.BigEndian.Uint64(data[2+8*i:])
	}
	*v = c
	return nil
}

// Truncate returns a copy of v keeping only the first k components. It is
// deliberately *unsound* — Charron-Bost proved clocks must have at least n
// components — and exists only for the E-T9 ablation that demonstrates what
// breaks when the bound is violated.
func (v VC) Truncate(k int) VC {
	if k > len(v) {
		k = len(v)
	}
	c := make(VC, k)
	copy(c, v[:k])
	return c
}
