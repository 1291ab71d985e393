package vclock

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWireRoundTrip checks that any clock — sparse, dense-valued, dense
// (nil mask), with marked zero components, or the covered marker — decodes
// back to the same values, consuming exactly the bytes written, that a
// re-encode of the decoded clock reproduces those bytes, and that WireLen
// agrees with the encoder.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0xFF}, uint8(4), uint8(0))
	f.Add([]byte{}, []byte{}, uint8(1), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 9}, []byte{0x05, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(130), uint8(0))
	f.Add([]byte{0xFF, 0xFF}, []byte{}, uint8(70), uint8(2))
	f.Fuzz(func(t *testing.T, rawV, rawM []byte, n8, shape uint8) {
		n := int(n8)
		m := NewMasked(n)
		for i := range m.V {
			if i < len(rawV) && rawV[i] != 0 {
				m.V[i] = uint64(rawV[i]) << (i % 57)
				m.M.Set(i)
			}
			if i/8 < len(rawM) && rawM[i/8]&(1<<(i%8)) != 0 {
				m.M.Set(i) // over-approximate: a marked zero
			}
		}
		switch shape % 3 {
		case 1:
			m.M = nil // dense
		case 2:
			m = Masked{Covered: true}
		}

		enc := m.AppendWire(nil)
		if got := m.WireLen(); got != len(enc) {
			t.Fatalf("WireLen = %d, encoder wrote %d bytes", got, len(enc))
		}
		if m.M == nil && !m.Covered && len(enc) != m.V.WireSize() {
			t.Fatalf("dense clock shipped %d bytes, want the fixed %d", len(enc), m.V.WireSize())
		}
		if !m.Covered && len(enc) > m.V.WireSize() {
			t.Fatalf("wire form %d bytes exceeds the fixed %d", len(enc), m.V.WireSize())
		}
		// Trailing garbage must not be consumed.
		dec, used, err := DecodeWire(append(enc, 0xAA, 0xBB))
		if err != nil {
			t.Fatalf("DecodeWire failed on valid input: %v", err)
		}
		if used != len(enc) {
			t.Fatalf("DecodeWire consumed %d bytes, encoder wrote %d", used, len(enc))
		}
		if dec.Covered != m.Covered || !bytes.Equal(vcBytes(dec.V), vcBytes(m.V)) {
			t.Fatalf("round trip: got %v (covered %v), want %v (covered %v)", dec.V, dec.Covered, m.V, m.Covered)
		}
		if len(enc) < m.V.WireSize() && !bytes.Equal(maskBytes(dec.M), maskBytes(m.M)) {
			t.Fatalf("sparse round trip lost the bitmap: got %b, want %b", dec.M, m.M)
		}
		if re := dec.AppendWire(nil); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding the decoded clock: %x, want %x", re, enc)
		}
	})
}

func maskBytes(m Mask) []byte {
	var out []byte
	for _, w := range m {
		out = binary.BigEndian.AppendUint64(out, w)
	}
	return out
}

// FuzzDecodeWireRobust feeds arbitrary bytes to the decoder: it must either
// return an error or a well-formed clock having consumed exactly the bytes
// its own encoding takes — never panic or read out of range.
func FuzzDecodeWireRobust(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{0x80, 0})
	f.Add([]byte{0x80, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, used, err := DecodeWire(data)
		if err != nil {
			return
		}
		if used < 2 || used > len(data) {
			t.Fatalf("DecodeWire consumed %d of %d bytes", used, len(data))
		}
		if !dec.Covered && (dec.V == nil || dec.M != nil && len(dec.M) != MaskWords(dec.Len())) {
			t.Fatalf("decoded a malformed clock: %v / %b", dec.V, dec.M)
		}
		if !dec.CheckInvariant() {
			t.Fatalf("decoded bitmap misses a nonzero component: %v / %b", dec.V, dec.M)
		}
		if got := dec.WireLen(); got != used {
			t.Fatalf("decoded clock re-encodes to %d bytes, decoder consumed %d", got, used)
		}
	})
}
