package vclock

import (
	"fmt"
	"strings"
)

// Matrix is the clock matrix V_Pi of §IV-B: each process maintains an n×n
// matrix that is its local view of global time. Row i is process P_i's own
// vector clock; row j (j ≠ i) is P_i's latest knowledge of P_j's vector
// clock. update_local_clock increments the diagonal element V[i][i].
//
// Matrix clocks subsume vector clocks; the extra rows give each process a
// bound on what every other process is known to know, which the runtime uses
// to garbage-collect race-report context and which §V-B's "new
// interpretations of distributed algorithms" alludes to.
type Matrix struct {
	n int
	m []uint64 // row-major n×n
}

// NewMatrix returns a zeroed n×n clock matrix.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("vclock: negative matrix size")
	}
	return &Matrix{n: n, m: make([]uint64, n*n)}
}

// N returns the number of processes the matrix covers.
func (m *Matrix) N() int { return m.n }

// Row returns row i as a VC backed by the matrix storage; mutating the
// returned clock mutates the matrix.
func (m *Matrix) Row(i int) VC {
	return VC(m.m[i*m.n : (i+1)*m.n])
}

// RowCopy returns an independent copy of row i.
func (m *Matrix) RowCopy(i int) VC { return m.Row(i).Copy() }

// Copy returns a deep copy of the matrix.
func (m *Matrix) Copy() *Matrix {
	c := NewMatrix(m.n)
	copy(c.m, m.m)
	return c
}

// TickLocal increments the diagonal element of owner — the paper's
// update_local_clock for process P_owner.
func (m *Matrix) TickLocal(owner int) {
	m.m[owner*m.n+owner]++
}

// MergeRow merges clock v into row j using component-wise max.
func (m *Matrix) MergeRow(j int, v VC) {
	m.Row(j).Merge(v)
}

// MergeMatrix merges every row of o into the corresponding row of m.
// This is the matrix-clock exchange rule: on receiving a message from P_j,
// P_i merges P_j's whole matrix, then merges row j into its own row i.
func (m *Matrix) MergeMatrix(o *Matrix) {
	if m.n != o.n {
		panic(fmt.Sprintf("vclock: matrix size mismatch %d != %d", m.n, o.n))
	}
	maxBlock(m.m, o.m)
}

// MinKnown returns, for process component c, the minimum over all rows of
// component c: a lower bound on what *every* process is known to have
// observed from process c. Events below this bound are globally known and
// their bookkeeping can be discarded.
func (m *Matrix) MinKnown(c int) uint64 {
	if m.n == 0 {
		return 0
	}
	min := m.m[c]
	for r := 1; r < m.n; r++ {
		if v := m.m[r*m.n+c]; v < min {
			min = v
		}
	}
	return min
}

// String renders the matrix row per line, using VC formatting.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(m.Row(i).String())
	}
	return b.String()
}

// Lamport is a scalar Lamport clock (§III-C cites [12]); it orders events
// totally but cannot *detect* concurrency, which is why the paper needs
// vector clocks. It exists here to power tests demonstrating that gap.
type Lamport uint64

// Tick advances the clock for a local event and returns the new value.
func (l *Lamport) Tick() Lamport {
	*l++
	return *l
}

// Witness merges a received timestamp then ticks, per Lamport's receive rule.
func (l *Lamport) Witness(o Lamport) Lamport {
	if o > *l {
		*l = o
	}
	return l.Tick()
}
