package vclock

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// The piggyback wire format. Every clock starts with a 2-byte big-endian
// header: the top bit is the format tag, the low 15 bits the component
// count n (so a wire clock has at most MaxWireComponents components).
//
//   - Fixed (tag 0): the 2+8n layout of AppendBinary, every component in
//     order. A dense clock (nil mask) always ships fixed, and so does any
//     clock whose sparse form would not be smaller — a clock never costs
//     more than the fixed format.
//   - Sparse (tag 1, n > 0): the occupancy bitmap (MaskWords(n) words,
//     8·⌈n/64⌉ bytes), then the 8-byte value of each marked component in
//     index order. A marked component may be zero; it is shipped anyway.
//   - Covered marker (tag 1, n = 0): a reply whose clock the receiver
//     provably dominates already (Masked.Covered) — nothing to absorb.
//
// The size is a function of the clock alone (n and the mask's population
// count): no decoder state, no per-channel history.

// MaxWireComponents is the largest clock the wire header can describe.
const MaxWireComponents = 1<<15 - 1

const (
	sparseTag     = 1 << 15
	coveredHeader = sparseTag // sparse tag, zero components
)

// fixedLen is the fixed-format size of an n-component clock.
func fixedLen(n int) int { return 2 + 8*n }

// sparseLen is the sparse-format size of an n-component clock with pop
// marked components.
func sparseLen(n, pop int) int { return 2 + 8*MaskWords(n) + 8*pop }

// WireLen returns len(m.AppendWire(nil)): 0 for no clock, 2 for a covered
// marker, otherwise the smaller of the sparse and fixed forms. It counts the
// mask's set bits and touches no component.
func (m Masked) WireLen() int {
	n := len(m.V)
	switch {
	case m.Covered:
		return 2
	case m.V == nil:
		return 0
	case m.M == nil:
		return fixedLen(n)
	}
	if s := sparseLen(n, m.M.popCount()); s < fixedLen(n) {
		return s
	}
	return fixedLen(n)
}

// popCount returns the number of set bits.
func (m Mask) popCount() int {
	pop := 0
	for _, w := range m {
		pop += bits.OnesCount64(w)
	}
	return pop
}

// AppendWire appends m's wire encoding to dst and returns the extended
// slice; a nil clock (no clock at all) appends nothing. Clocks with more
// than MaxWireComponents components panic: sizes are validated when the
// cluster is configured.
func (m Masked) AppendWire(dst []byte) []byte {
	n := len(m.V)
	switch {
	case m.Covered:
		return binary.BigEndian.AppendUint16(dst, coveredHeader)
	case m.V == nil:
		return dst
	case n > MaxWireComponents:
		panic("vclock: too many components for the wire format")
	}
	if m.M == nil || m.WireLen() == fixedLen(n) {
		return m.V.AppendBinary(dst)
	}
	dst = binary.BigEndian.AppendUint16(dst, sparseTag|uint16(n))
	for _, w := range m.M {
		dst = binary.BigEndian.AppendUint64(dst, w)
	}
	for w, mw := range m.M {
		for b := mw; b != 0; b &= b - 1 {
			dst = binary.BigEndian.AppendUint64(dst, m.V[w*64+bits.TrailingZeros64(b)])
		}
	}
	return dst
}

// DecodeWire decodes one clock written by AppendWire from the front of
// data and returns it with the number of bytes consumed. A sparse clock
// keeps the shipped bitmap as its mask; a fixed clock arrives dense (nil
// mask); the covered marker decodes to Masked{Covered: true}.
func DecodeWire(data []byte) (Masked, int, error) {
	if len(data) < 2 {
		return Masked{}, 0, errors.New("vclock: short wire header")
	}
	h := binary.BigEndian.Uint16(data)
	n := int(h &^ sparseTag)
	if h&sparseTag == 0 {
		var v VC
		if err := v.UnmarshalBinary(data); err != nil {
			return Masked{}, 0, err
		}
		return Dense(v), fixedLen(n), nil
	}
	if n == 0 {
		return Masked{Covered: true}, 2, nil
	}
	nw := MaskWords(n)
	if len(data) < sparseLen(n, 0) {
		return Masked{}, 0, errors.New("vclock: truncated occupancy bitmap")
	}
	m := NewMasked(n)
	for w := range m.M {
		m.M[w] = binary.BigEndian.Uint64(data[2+8*w:])
	}
	if m.M[nw-1]&^denseMaskWord(nw-1, n) != 0 {
		return Masked{}, 0, errors.New("vclock: bitmap marks a component past the clock")
	}
	size := sparseLen(n, m.M.popCount())
	if size >= fixedLen(n) {
		// AppendWire ships such a clock fixed; accepting it would give one
		// clock two encodings of different sizes.
		return Masked{}, 0, errors.New("vclock: sparse form no smaller than fixed")
	}
	if len(data) < size {
		return Masked{}, 0, errors.New("vclock: truncated sparse clock")
	}
	pos := sparseLen(n, 0)
	for w, mw := range m.M {
		for b := mw; b != 0; b &= b - 1 {
			m.V[w*64+bits.TrailingZeros64(b)] = binary.BigEndian.Uint64(data[pos:])
			pos += 8
		}
	}
	return m, size, nil
}
