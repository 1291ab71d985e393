package vclock

import "math/bits"

// Mask is a word-granular occupancy bitmap over a clock's components: bit
// i&63 of word i>>6 covers component i. A set bit means the component *may*
// be nonzero; a clear bit guarantees it is zero. The mask is a sound
// over-approximation — operations use it only to skip provably-zero spans,
// never to decide values — so masked operations are observationally
// identical to their dense counterparts (the property the fuzz suite in
// masked_test.go pins).
//
// A mask is exact when a bit is set if and only if its component is
// nonzero. Tick, Merge, MergeAndCompare and CopyInto keep exact masks exact
// (only a dense, nil-mask operand saturates), so clocks built from NewMasked
// stay exact — which makes their sparse wire size (WireLen) a function of
// the clock's value alone.
type Mask []uint64

// MaskWords returns the number of mask words covering n components.
func MaskWords(n int) int { return (n + 63) / 64 }

// Set marks component i as possibly nonzero.
func (m Mask) Set(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether component i is marked.
func (m Mask) Has(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// OrInto folds o into m (m |= o).
func (m Mask) OrInto(o Mask) {
	for w, x := range o {
		m[w] |= x
	}
}

// Fill saturates the mask for an n-component clock: every valid bit set.
// After Fill, masked operations degrade gracefully to the dense loops.
func (m Mask) Fill(n int) {
	for w := range m {
		m[w] = denseMaskWord(w, n)
	}
}

// CopyInto copies m into dst, reusing dst's storage when possible. A nil
// (dense) source yields a nil destination: "dense" must survive the copy.
func (m Mask) CopyInto(dst Mask) Mask {
	if m == nil {
		return nil
	}
	if cap(dst) < len(m) {
		dst = make(Mask, len(m))
	}
	dst = dst[:len(m)]
	copy(dst, m)
	return dst
}

// denseMaskWord is the mask word with every bit covering a valid component
// of an n-component clock set — what a nil (dense) mask stands for.
func denseMaskWord(w, n int) uint64 {
	if rem := n - w*64; rem < 64 {
		return 1<<uint(rem) - 1
	}
	return ^uint64(0)
}

// word returns mask word w, with a nil mask standing for fully dense.
func (m Mask) word(w, n int) uint64 {
	if m == nil {
		return denseMaskWord(w, n)
	}
	return m[w]
}

// bitScanCutoff is the population count at which iterating a live mask word
// bit-by-bit stops paying for itself and the block is walked densely — the
// per-word "fall back to dense when the mask saturates" point. A word whose
// every *valid* bit is set always walks densely, whatever its count: small
// clocks (n < 64) must not be condemned to the bit scan forever.
//
// Measured against the branch-free kernels (2.6 GHz Xeon, 512 rotating
// pairs): a bit-scanned component costs ≈1.8 ns compared, ≈1.1 ns merged and
// ≈1.5 ns fused; a dense 64-component block costs ≈66, ≈41 and ≈62 ns. The
// lines cross at 36–39 live bits when every word has the same count; real
// masks vary it, which adds one mispredicted scan exit per word, so the
// switch sits at half the word.
const bitScanCutoff = 32

// denseBlock reports whether a live union word u covering block w of an
// n-component clock should take the dense inner loop.
func denseBlock(u uint64, w, n int) bool {
	return u == denseMaskWord(w, n) || bits.OnesCount64(u) >= bitScanCutoff
}

// blockSpan returns the component range [base, end) mask word w covers in
// an n-component clock.
func blockSpan(w, n int) (base, end int) {
	base = w * blockLen
	return base, min(base+blockLen, n)
}

// Masked couples a dense vector clock with its occupancy Mask. The dense
// storage V is always authoritative: any consumer that does not care about
// sparsity (reports, rendering, the wire codec's output) reads V directly.
// A nil M means dense — every component may be nonzero — which is also the
// saturation fallback, so Masked{V: v} wraps any plain clock at zero cost.
//
// The paper's detector does O(n) clock work per access (§IV-C); the mask
// cuts that to O(changed components) for the communication-local workloads
// large clusters actually run, while staying bit-for-bit identical on the
// dense ones.
type Masked struct {
	V VC
	M Mask
	// Covered marks an elided absorb clock: the producer proved the
	// consumer's clock dominates the clock that would have been returned,
	// so merging it would be a no-op and no bytes were materialised (V is
	// nil). It ships as the 2-byte covered marker (see AppendWire).
	Covered bool
}

// NewMasked returns a zeroed masked clock for n processes (empty mask: every
// component is provably zero).
func NewMasked(n int) Masked {
	return Masked{V: New(n), M: make(Mask, MaskWords(n))}
}

// Dense wraps a plain clock as a Masked value with a saturated (nil) mask.
func Dense(v VC) Masked { return Masked{V: v} }

// Len returns the number of components.
func (m Masked) Len() int { return len(m.V) }

// IsNil reports whether the value carries no clock at all (the "no absorb
// clock" sentinel, mirroring a nil VC).
func (m Masked) IsNil() bool { return m.V == nil }

// Tick increments component i and marks it.
func (m Masked) Tick(i int) {
	m.V[i]++
	if m.M != nil {
		m.M.Set(i)
	}
}

// saturate marks every component — the target of an operation whose source
// carried no mask can no longer prove any zero.
func (m Masked) saturate() {
	if m.M != nil {
		m.M.Fill(len(m.V))
	}
}

// Merge sets m.V to max(m.V, o.V) (Algorithm 4), walking only blocks o's
// mask marks live: a clear source bit means o is zero there and cannot win
// the max. m's mask absorbs o's.
func (m Masked) Merge(o Masked) {
	n := len(m.V)
	if len(o.V) != n {
		panic("vclock: masked merge size mismatch")
	}
	if o.M == nil {
		m.V.Merge(o.V)
		m.saturate()
		return
	}
	for w, mw := range o.M {
		if mw == 0 {
			continue
		}
		if m.M != nil {
			m.M[w] |= mw
		}
		base, end := blockSpan(w, n)
		if denseBlock(mw, w, n) {
			maxBlock(m.V[base:end], o.V[base:end])
			continue
		}
		for b := mw; b != 0; b &= b - 1 {
			i := base + bits.TrailingZeros64(b)
			m.V[i] = max(m.V[i], o.V[i])
		}
	}
}

// MergeAndCompare folds o into m (m.V = max(m.V, o.V)) and returns the order
// o held against m's previous value — the fused Algorithm 3 + 4 walk of
// VC.MergeAndCompare, restricted to blocks either mask marks live (a block
// clear in both masks is zero on both sides: equal, nothing to merge).
func (m Masked) MergeAndCompare(o Masked) Order {
	n := len(m.V)
	if len(o.V) != n {
		panic("vclock: masked compare size mismatch")
	}
	var lt, gt uint64
	nw := MaskWords(n)
	for w := 0; w < nw; w++ {
		u := m.M.word(w, n) | o.M.word(w, n)
		if u == 0 {
			continue
		}
		if m.M != nil {
			if o.M != nil {
				m.M[w] |= o.M[w]
			} else {
				m.M[w] = denseMaskWord(w, n)
			}
		}
		base, end := blockSpan(w, n)
		if denseBlock(u, w, n) {
			l, g := maxCmpBlock(m.V[base:end], o.V[base:end])
			lt, gt = lt|l, gt|g
			continue
		}
		for b := u; b != 0; b &= b - 1 {
			i := base + bits.TrailingZeros64(b)
			mx, l, g := maxCmpStep(m.V[i], o.V[i])
			m.V[i] = mx
			lt, gt = lt|l, gt|g
		}
	}
	return orderOf(lt, gt)
}

// Compare classifies (m, o) under the Mattern partial order without
// mutating either, walking only live blocks and stopping at the first block
// boundary past which the answer is already Concurrent.
func (m Masked) Compare(o Masked) Order {
	n := len(m.V)
	if len(o.V) != n {
		panic("vclock: masked compare size mismatch")
	}
	var lt, gt uint64
	nw := MaskWords(n)
	for w := 0; w < nw; w++ {
		u := m.M.word(w, n) | o.M.word(w, n)
		if u == 0 {
			continue
		}
		base, end := blockSpan(w, n)
		if denseBlock(u, w, n) {
			l, g := cmpBlock(m.V[base:end], o.V[base:end])
			lt, gt = lt|l, gt|g
		} else {
			for b := u; b != 0; b &= b - 1 {
				i := base + bits.TrailingZeros64(b)
				l, g := cmpStep(m.V[i], o.V[i])
				lt, gt = lt|l, gt|g
			}
		}
		if lt != 0 && gt != 0 {
			return Concurrent
		}
	}
	return orderOf(lt, gt)
}

// ConcurrentWith reports whether m and o are causally unrelated — the race
// predicate of Corollary 1, on the masked representation.
func (m Masked) ConcurrentWith(o Masked) bool { return m.Compare(o) == Concurrent }

// Dominates reports m ≥ o component-wise.
func (m Masked) Dominates(o Masked) bool {
	ord := m.Compare(o)
	return ord == After || ord == Equal
}

// CopyInto copies m into dst (values and mask), reusing dst's storage when
// possible, and returns the destination. Only blocks live in either mask are
// touched: blocks dead in both are zero on both sides already, and blocks
// live only in dst are re-zeroed. A dense source saturates the destination.
func (m Masked) CopyInto(dst Masked) Masked {
	n := len(m.V)
	if cap(dst.V) < n {
		dst.V = make(VC, n)
		dst.M = nil // force the mask to be rebuilt below
	}
	dst.V = dst.V[:n]
	if m.M == nil || cap(dst.M) < MaskWords(n) {
		copy(dst.V, m.V)
		dst.M = m.M.CopyInto(dst.M)
		return dst
	}
	dst.M = dst.M[:MaskWords(n)]
	for w, mw := range m.M {
		u := mw | dst.M[w]
		if u == 0 {
			continue
		}
		base, end := blockSpan(w, n)
		copy(dst.V[base:end], m.V[base:end])
		dst.M[w] = mw
	}
	return dst
}

// Copy returns an independent copy of m.
func (m Masked) Copy() Masked { return m.CopyInto(Masked{}) }

// StorageBytes is the modelled footprint of the masked representation: the
// clock's fixed wire size plus the occupancy bitmap (8 bytes per 64
// components). This is the E-T1 accounting for detectors that keep masked
// clocks, independent of the form a clock takes on the wire (WireLen).
func (m Masked) StorageBytes() int { return m.V.WireSize() + 8*MaskWords(len(m.V)) }

// CheckInvariant verifies the mask covers every nonzero component (test
// support; a violation would silently corrupt every masked operation).
func (m Masked) CheckInvariant() bool {
	if m.M == nil {
		return true
	}
	for i, x := range m.V {
		if x != 0 && !m.M.Has(i) {
			return false
		}
	}
	return true
}
