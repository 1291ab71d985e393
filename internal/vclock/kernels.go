package vclock

// The compare and max arithmetic behind every clock comparison and merge in
// this package: two per-component steps and the three block kernels built
// from them. Everything here is data-independent — the only conditional jump
// in a kernel is its loop counter's — because which side of a component pair
// is ahead is exactly what a race detector cannot predict (doc.go has the
// measured cost of getting that wrong).
//
// Contract: both slices have the same length (callers check, and panic with
// their own message, first); flags mean "nonzero: seen", never a count; no
// kernel allocates. max compiles to CMOV on amd64 and CSEL on arm64 — there
// is no assembly and no build tag. The kernels are kept out of line so each
// is one tight loop whatever the register pressure of its caller, and so
// `go tool objdump -s 'vclock\.(cmp|max|maxCmp)Block'` shows exactly the code
// every walker runs: a conditional jump inside one of those loops other than
// the back edge is a regression.

// blockLen is the number of components one mask word covers, and the
// granularity at which walkers test for early exit.
const blockLen = 64

// cmpStep compares one component pair: lt is nonzero iff x < y, gt iff
// x > y. With m = max(x, y), m differs from x exactly when y is strictly
// ahead and from y exactly when x is — full-range unsigned, where any
// signed-difference shortcut gives wrong flags across 2⁶³.
func cmpStep(x, y uint64) (lt, gt uint64) {
	m := max(x, y)
	return m ^ x, m ^ y
}

// maxCmpStep is the fused step: m = max(d, x) with the flags of
// cmpStep(x, d), the incoming x against the stored d.
func maxCmpStep(d, x uint64) (m, lt, gt uint64) {
	m = max(d, x)
	return m, m ^ x, m ^ d
}

// cmpBlock compares a against b component-wise (Algorithm 3): lt is nonzero
// iff some a[i] < b[i], gt iff some a[i] > b[i].
//
//go:noinline
func cmpBlock(a, b []uint64) (lt, gt uint64) {
	b = b[:len(a)]
	for i, x := range a {
		l, g := cmpStep(x, b[i])
		lt, gt = lt|l, gt|g
	}
	return lt, gt
}

// maxBlock sets dst[i] = max(dst[i], src[i]) (Algorithm 4). The store is
// unconditional: a conditional store is a conditional jump.
//
//go:noinline
func maxBlock(dst, src []uint64) {
	src = src[:len(dst)]
	for i, x := range src {
		dst[i] = max(dst[i], x)
	}
}

// maxCmpBlock is maxBlock fused with cmpBlock(src, dst) taken against dst's
// previous contents (Algorithms 3 + 4 in one pass over the same components):
// lt is nonzero iff some src[i] < dst[i], gt iff some src[i] > dst[i].
//
//go:noinline
func maxCmpBlock(dst, src []uint64) (lt, gt uint64) {
	src = src[:len(dst)]
	for i, x := range src {
		m, l, g := maxCmpStep(dst[i], x)
		dst[i] = m
		lt, gt = lt|l, gt|g
	}
	return lt, gt
}

// orderOf turns accumulated flags into the Mattern order they describe: a
// against b for cmpBlock, src against dst's previous contents for
// maxCmpBlock.
func orderOf(lt, gt uint64) Order {
	switch {
	case lt != 0 && gt != 0:
		return Concurrent
	case lt != 0:
		return Before
	case gt != 0:
		return After
	default:
		return Equal
	}
}
