package core

import (
	"fmt"

	"dsmrace/internal/memory"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// AccessKind distinguishes remote reads (get) from remote writes (put).
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

// String returns "read" or "write".
func (k AccessKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Access describes one remote memory operation as seen by a detector.
type Access struct {
	// Proc is the initiating process.
	Proc int
	// Seq is the initiator's per-process operation sequence number; together
	// with Proc it identifies the operation in traces and ground truth.
	Seq uint64
	// Area is the shared variable being accessed.
	Area memory.AreaID
	// Kind is Read (get) or Write (put).
	Kind AccessKind
	// Clock is the initiator's vector clock K, ticked just before the
	// operation was issued.
	Clock vclock.VC
	// ClockNZ is Clock's occupancy mask (see vclock.Mask); nil means dense.
	// Purely an accelerator: detectors use it to skip provably-zero clock
	// spans, never to decide values.
	ClockNZ vclock.Mask
	// Locks are the user-level locks held by the initiator, for
	// lockset-style detectors. Nil when none. Like Clock, the list may alias
	// the issuing process's live state: it is stable while the operation is
	// handled, and whoever keeps the Access longer copies it (CopyLocks).
	Locks []int
	// Time is the virtual time the operation was checked.
	Time sim.Time
}

// CopyLocks snapshots an access's held-lock list into *buf, a buffer the
// retainer owns and reuses. A nil list stays nil.
func CopyLocks(buf *[]int, locks []int) []int {
	if locks == nil {
		return nil
	}
	*buf = append((*buf)[:0], locks...)
	return *buf
}

// String renders the access compactly for reports.
func (a Access) String() string {
	return fmt.Sprintf("%s by P%d (op %d) on area %d with clock %s", a.Kind, a.Proc, a.Seq, a.Area, a.Clock)
}

// Report is one signalled race condition. Per §IV-D races are signalled and
// never abort the execution: some algorithms race on purpose.
type Report struct {
	// Detector is the name of the detector that produced the report.
	Detector string
	// Area is the shared variable involved.
	Area memory.AreaID
	// Current is the access whose check failed.
	Current Access
	// StoredClock is the area clock Current was compared against (V for
	// writes, W for reads, in the paper's detector).
	StoredClock vclock.VC
	// Prior is best-effort context: the most recent conflicting access known
	// to the detector. The merged clock is authoritative; Prior may not be
	// the only conflicting operation.
	Prior *Access
	// Time is the virtual detection time.
	Time sim.Time
}

// String renders the report in the signal_race_condition format.
func (r Report) String() string {
	s := fmt.Sprintf("RACE [%s] t=%v area=%d: %s is concurrent with area clock %s",
		r.Detector, r.Time, r.Area, r.Current, r.StoredClock)
	if r.Prior != nil {
		s += fmt.Sprintf(" (last conflicting: %s)", *r.Prior)
	}
	return s
}

// Clone returns a copy of the report that shares no storage with the
// detector state that produced it. Reports returned by OnAccess live in
// per-state scratch (the zero-allocation contract); anything that retains a
// report past the next OnAccess call on the same state must Clone it first.
//
// Current.Clock and Current.Locks are copied too: they alias the initiating
// process's live clock and held-lock list, which its *next* operation
// changes, so a retained report must own its bytes.
func (r Report) Clone() Report {
	c := r
	c.StoredClock = r.StoredClock.Copy()
	c.Current.Clock = r.Current.Clock.Copy()
	c.Current.ClockNZ = nil
	if r.Current.Locks != nil {
		c.Current.Locks = append([]int(nil), r.Current.Locks...)
	}
	if r.Prior != nil {
		p := *r.Prior
		p.Clock = r.Prior.Clock.Copy()
		p.ClockNZ = nil
		if r.Prior.Locks != nil {
			p.Locks = append([]int(nil), r.Prior.Locks...)
		}
		c.Prior = &p
	}
	return c
}

// Pair returns the unordered (proc,seq) endpoints of the report when prior
// context exists, for matching against ground truth.
func (r Report) Pair() (a, b [2]uint64, ok bool) {
	if r.Prior == nil {
		return a, b, false
	}
	a = [2]uint64{uint64(r.Current.Proc), r.Current.Seq}
	b = [2]uint64{uint64(r.Prior.Proc), r.Prior.Seq}
	return a, b, true
}

// ReportScratch is the storage a report returned by OnAccess lives in: the
// report itself, its StoredClock, and a snapshot of the prior access. An area
// state embeds one. It is a single pointer until the area's first race, so a
// race-free area never pays for the buffers and a racing one allocates
// nothing per report.
type ReportScratch struct{ buf *reportBuf }

type reportBuf struct {
	rep        Report
	stored     vclock.VC
	prior      Access
	priorClock vclock.VC
	priorLocks []int
}

// Fill builds the report for acc in the scratch and returns it; the previous
// report built here is overwritten. stored (the area clock acc was checked
// against, nil for detectors that keep none) and prior (nil when unknown)
// are copied, because the state updates both before OnAccess returns.
func (s *ReportScratch) Fill(detector string, acc Access, stored vclock.VC, prior *Access) *Report {
	if s.buf == nil {
		s.buf = new(reportBuf)
	}
	b := s.buf
	b.rep = Report{Detector: detector, Area: acc.Area, Current: acc, Time: acc.Time}
	if stored != nil {
		b.stored = stored.CopyInto(b.stored)
		b.rep.StoredClock = b.stored
	}
	if prior != nil {
		b.priorClock = prior.Clock.CopyInto(b.priorClock)
		b.prior = *prior
		b.prior.Clock = b.priorClock
		b.prior.ClockNZ = nil
		b.prior.Locks = CopyLocks(&b.priorLocks, prior.Locks)
		b.rep.Prior = &b.prior
	}
	return &b.rep
}

// AreaState is per-area (or per-node, at node granularity) detector state
// owned by the home NIC. Implementations are not safe for real concurrent
// use; the simulation serialises all calls, mirroring the paper's
// requirement that the area lock is held around check+update ("Since the
// shared memory area is locked, there cannot exist a race condition between
// the remote memory accesses induced by the detection mechanism").
type AreaState interface {
	// OnAccess checks acc against the state, then folds acc into the state.
	// It returns a non-nil report iff a race is detected, and the clock the
	// initiator should absorb (IsNil when the detector is not clock-based).
	//
	// absorb is a caller-owned scratch buffer: when the detector returns a
	// clock it copies into absorb (growing it as needed, values and
	// occupancy mask together) and returns the result, so a caller that
	// threads the returned buffer back in performs no allocation in steady
	// state. Pass the zero Masked to get a freshly allocated clock.
	//
	// The returned report lives in per-state scratch storage (see
	// ReportScratch) — the struct, its StoredClock and its Prior — and is
	// valid until the next OnAccess call on this state. Retain with
	// Report.Clone (Collector.Signal builds its own copy).
	// The state may also retain acc.Clock only until it returns: it copies
	// what it needs into its own buffers.
	OnAccess(acc Access, home int, absorb vclock.Masked) (*Report, vclock.Masked)
	// StorageBytes reports the bytes of detection metadata held for the
	// area — the storage-overhead measurement of E-T1 (§V-A).
	StorageBytes() int
}

// AbsorbElider is implemented by area states that can prove an absorb
// clock is already covered by the access's own clock and skip materialising
// it (returning a Covered Masked instead, which ships as the 2-byte covered
// marker). The transport opts in per run: elision is only sound when
// nothing else consumes the reply clock (no caching coherence protocol,
// no per-word fan-out merging the reply).
type AbsorbElider interface {
	EnableAbsorbElision()
}

// Detector manufactures per-area state.
type Detector interface {
	// Name identifies the detector in reports and tables.
	Name() string
	// NewAreaState returns fresh state for one area of a system with n
	// processes.
	NewAreaState(n int) AreaState
}

// reportChunk is the collector's storage unit, for reports and for their
// prior accesses alike. Racy workloads can signal hundreds of thousands of
// reports; a chunked list appends in O(1) without ever re-copying (and
// re-zeroing) a doubling backing array, which showed up as the single largest
// cost in throughput benchmarks.
const reportChunk = 512

// Collector gathers reports with an optional cap and callback. It
// implements the paper's signalling policy: record and continue.
//
// A stored report is built in place in three collector-owned slabs and costs
// no allocation of its own: the report in the tail slot of a report chunk,
// its Prior access in the tail slot of a prior chunk, and its clocks in the
// intern table's arena (see intern.go). The clock fields are interned:
// reports whose StoredClock, Current.Clock or Prior.Clock are equal by value
// share one immutable snapshot, so a racy run that signals thousands of
// reports against the same handful of area clocks holds each distinct clock
// once. Reports returned by Reports() (or passed to OnReport) are therefore
// read-only: mutating a clock in one would silently corrupt every report
// sharing it, and a Prior is shared by every copy of its report. Set
// NoIntern to fall back to fully independent per-report copies.
type Collector struct {
	// Limit caps stored reports (0 = unlimited). Detection continues past
	// the limit; only storage stops.
	Limit int
	// OnReport, when non-nil, is invoked for every report (even past Limit).
	OnReport func(Report)
	// NoIntern disables report-clock interning: every stored report owns
	// private copies of its clocks (the pre-interning behaviour; used by
	// callers that mutate reports, and by the interning equivalence tests).
	NoIntern bool
	// Sample, when non-zero, stores only a deterministic subset of the
	// signalled reports — for runs where even interned reports are too
	// many. Default (the zero SampleSpec) stores everything.
	Sample SampleSpec

	// chunks holds the stored reports in signal order; only the last chunk
	// has room. After Reports() flattened them it is that one flat slice,
	// full, so the reports are never held twice.
	chunks    [][]Report
	priors    []Access // tail chunk of the prior-access slab
	stored    int
	total     int
	flat      []Report // cached Reports() result; nil after a new Signal
	intern    clockIntern
	areaCount map[memory.AreaID]int
	sstats    SampleStats
}

// SampleSpec selects the collector's deterministic sampling mode. Sampling
// decides purely from the signal sequence — the Nth signal and the per-area
// stored count — never from wall time or randomness, so the sampled set is
// a deterministic subset of the full run's reports: re-running the same
// schedule without sampling yields a superset in the same relative order.
// Total() still counts every signalled race, and OnReport still sees every
// report; only storage is thinned.
type SampleSpec struct {
	// EveryN stores the 1st, (N+1)th, (2N+1)th... signalled report
	// (0 or 1 = store every signal).
	EveryN int
	// AreaCap caps stored reports per area (0 = uncapped). Applied after
	// EveryN: a report that passes the stride but lands on a full area is
	// dropped and counted in SampleStats.
	AreaCap int
}

func (s SampleSpec) enabled() bool { return s.EveryN > 1 || s.AreaCap > 0 }

// SampleStats describes what sampling kept and dropped.
type SampleStats struct {
	// Seen counts reports that reached the sampler (signalled while
	// storage was still below Limit).
	Seen int
	// Stored counts reports kept.
	Stored int
	// DroppedStride counts reports dropped by the EveryN stride.
	DroppedStride int
	// DroppedAreaCap counts reports dropped by a full per-area budget.
	DroppedAreaCap int
}

// SampleStats returns the sampling counters (all zero when sampling is off
// or never engaged).
func (c *Collector) SampleStats() SampleStats { return c.sstats }

// sampleAdmit applies the deterministic sampling decision for a report
// about to be stored.
func (c *Collector) sampleAdmit(r *Report) bool {
	c.sstats.Seen++
	if c.Sample.EveryN > 1 && (c.sstats.Seen-1)%c.Sample.EveryN != 0 {
		c.sstats.DroppedStride++
		return false
	}
	if c.Sample.AreaCap > 0 {
		if c.areaCount == nil {
			c.areaCount = make(map[memory.AreaID]int)
		}
		if c.areaCount[r.Area] >= c.Sample.AreaCap {
			c.sstats.DroppedAreaCap++
			return false
		}
		c.areaCount[r.Area]++
	}
	c.sstats.Stored++
	return true
}

// Signal records a report. The report is deep-copied on the way in:
// detectors hand out reports whose clock fields borrow per-state scratch
// buffers, and the collector outlives them. Reports dropped by Limit with
// no callback to observe them are counted without paying for the copy.
func (c *Collector) Signal(r Report) {
	c.total++
	retain := c.Limit == 0 || c.stored < c.Limit
	if retain && c.Sample.enabled() && !c.sampleAdmit(&r) {
		retain = false // sampled out: counted, streamed, not stored
	}
	if !retain {
		// A report merely streamed to OnReport gets a plain GC-able clone,
		// so the slabs stay bounded by the retained reports (and
		// InternStats keeps describing exactly them).
		if c.OnReport != nil {
			c.OnReport(r.Clone())
		}
		return
	}
	n := len(c.chunks)
	if n == 0 || len(c.chunks[n-1]) == cap(c.chunks[n-1]) {
		c.chunks = append(c.chunks, make([]Report, 0, reportChunk))
		n++
	}
	// Build the stored report in its slot; the slot joins the chunk once
	// OnReport has seen it.
	ch := c.chunks[n-1]
	ch = ch[:len(ch)+1]
	slot := &ch[len(ch)-1]
	if c.NoIntern {
		*slot = r.Clone()
	} else {
		*slot = r
		c.own(slot)
	}
	if c.OnReport != nil {
		c.OnReport(*slot)
	}
	c.chunks[n-1] = ch
	c.stored++
	c.flat = nil
}

// own is Report.Clone in place, with every copied clock routed through the
// intern table and the prior access through the prior slab. The semantics
// match Clone exactly: afterwards the report shares no storage with detector
// or process scratch buffers — it shares storage only with other interned
// reports, all of which treat it as immutable.
func (c *Collector) own(r *Report) {
	r.StoredClock = c.intern.get(r.StoredClock)
	r.Current.Clock = c.intern.get(r.Current.Clock)
	r.Current.ClockNZ = nil
	if r.Current.Locks != nil {
		r.Current.Locks = append([]int(nil), r.Current.Locks...)
	}
	if r.Prior == nil {
		return
	}
	if len(c.priors) == cap(c.priors) {
		c.priors = make([]Access, 0, reportChunk)
	}
	c.priors = append(c.priors, *r.Prior)
	p := &c.priors[len(c.priors)-1]
	p.Clock = c.intern.get(p.Clock)
	p.ClockNZ = nil
	if p.Locks != nil {
		p.Locks = append([]int(nil), p.Locks...)
	}
	r.Prior = p
}

// Reports returns the stored reports in signal order. The flattened slice
// is built lazily and cached; it then replaces the chunks it was built from,
// capped at its length so the next Signal opens a fresh chunk instead of
// appending into a slice a caller holds.
func (c *Collector) Reports() []Report {
	if c.flat == nil && c.stored > 0 {
		flat := make([]Report, 0, c.stored)
		for _, ch := range c.chunks {
			flat = append(flat, ch...)
		}
		clear(c.chunks)
		c.chunks = append(c.chunks[:0], flat)
		c.flat = flat
	}
	return c.flat
}

// Total returns the number of signalled races including any dropped past
// Limit.
func (c *Collector) Total() int { return c.total }

// InternStats reports the clock-storage footprint of the stored reports:
// bytes actually held by the interned snapshots against what per-report
// cloning would have held. All zeros when NoIntern is set (nothing is
// tracked on that path).
func (c *Collector) InternStats() InternStats {
	return InternStats{
		Refs:       c.intern.refs,
		Unique:     c.intern.unique,
		Bytes:      c.intern.bytes,
		NaiveBytes: c.intern.naive,
	}
}
