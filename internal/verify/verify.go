package verify

import (
	"fmt"
	"sort"

	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/trace"
	"dsmrace/internal/vclock"
)

// Options mirrors the runtime's absorption configuration. The reference
// replay deliberately has no home-tick option: the home tick conflates a
// per-area write counter with the home process's event counter, which makes
// *pairwise* comparisons unreliable; exact ground truth therefore always
// compares pure access clocks. (The paper-mode detector that does tick
// misses races against this truth — see core.VWDetector; E-T10 quantifies
// the difference.)
type Options struct {
	AbsorbOnGetReply bool
	AbsorbOnPutAck   bool
	// WordLevel narrows "conflicting" to accesses whose word ranges
	// actually overlap. The paper's model keeps one clock per *area*, so
	// the detector's conflict unit is the area; word-level truth exposes
	// the false sharing that per-area clocks cannot avoid (§V-A's
	// granularity trade-off, measured in E-T11).
	WordLevel bool
	// PruneHistory discards history entries that every process's current
	// clock already dominates: no future access can be concurrent with
	// them, so they can never race again. This is the matrix-clock
	// garbage-collection idea (§IV-B's matrix gives each process a bound
	// on global knowledge; here the verifier holds all rows) applied to
	// the ground-truth replay — results are identical, memory is bounded
	// by the concurrency window instead of the trace length.
	PruneHistory bool
}

// DefaultOptions matches the runtime defaults (area-level conflicts, the
// model's own granularity).
func DefaultOptions() Options {
	return Options{AbsorbOnGetReply: true, AbsorbOnPutAck: true}
}

// WordLevelOptions is DefaultOptions with word-granularity conflicts.
func WordLevelOptions() Options {
	o := DefaultOptions()
	o.WordLevel = true
	return o
}

// SyncOnlyOptions computes the *protocol-invariant* ground truth: only
// program order, lock release→acquire edges and barriers order accesses —
// no completion-absorption edges. Absorption edges depend on the order in
// which accesses reach an area's home, which in turn depends on message
// timing, i.e. on the coherence protocol and the interconnect; the
// sync-only relation depends on neither. For a workload whose per-process
// access sequence is schedule-independent, the sync-only race set is
// therefore a function of the program alone — the set the protocol
// equivalence suite asserts write-update and write-invalidate agree on.
func SyncOnlyOptions() Options { return Options{} }

// AccessID identifies one access as (process, per-process sequence).
type AccessID struct {
	Proc int
	Seq  uint64
}

// String renders the id as P<proc>#<seq>.
func (a AccessID) String() string { return fmt.Sprintf("P%d#%d", a.Proc, a.Seq) }

// Pair is an unordered racing pair, normalised so A < B.
type Pair struct {
	A, B AccessID
	Area memory.AreaID
}

func makePair(a, b AccessID, area memory.AreaID) Pair {
	if b.Proc < a.Proc || (b.Proc == a.Proc && b.Seq < a.Seq) {
		a, b = b, a
	}
	return Pair{A: a, B: b, Area: area}
}

// Result is the exact ground truth of a trace.
type Result struct {
	// Pairs are all true racing pairs, deduplicated and sorted.
	Pairs []Pair
	// Racy is the set of accesses an online detector *should* flag: those
	// with at least one concurrent conflicting predecessor in apply order.
	Racy map[AccessID]bool
	// Accesses is the number of shared-memory accesses replayed.
	Accesses int
	// Pruned counts history entries garbage-collected (PruneHistory).
	Pruned int
	// PeakHistory is the largest per-area history length observed.
	PeakHistory int
	// Clocks holds the reference clock of every access, for offline
	// what-if analyses (e.g. the truncated-clock ablation E-T9).
	Clocks map[AccessID]vclock.VC
	// ConflictPairs counts all conflicting pairs (ordered or not).
	ConflictPairs int
}

// HasPair reports whether the unordered pair (a, b) races.
func (r *Result) HasPair(a, b AccessID, area memory.AreaID) bool {
	p := makePair(a, b, area)
	for _, q := range r.Pairs {
		if q == p {
			return true
		}
	}
	return false
}

type histEntry struct {
	id         AccessID
	write      bool
	clock      vclock.VC
	off, count int
}

// gtArea is the verifier's per-area state: reference clocks plus the full
// access history.
type gtArea struct {
	v, w vclock.VC
	hist []histEntry
}

// pruneHistory drops entries dominated by every process's current clock:
// any future access clock K_q dominates C_q, so an entry ≤ C_q for all q
// can never again compare concurrent — the matrix-clock GC argument
// (§IV-B) applied to the verifier. It returns the number pruned.
func pruneHistory(st *gtArea, clocks []vclock.VC) int {
	kept := st.hist[:0]
	pruned := 0
	for _, h := range st.hist {
		dominated := true
		for _, c := range clocks {
			if !c.Dominates(h.clock) {
				dominated = false
				break
			}
		}
		if dominated {
			pruned++
		} else {
			kept = append(kept, h)
		}
	}
	st.hist = kept
	return pruned
}

// GroundTruth replays tr and returns the exact race set.
func GroundTruth(tr *trace.Trace, opt Options) *Result {
	n := tr.Procs
	clocks := make([]vclock.VC, n)
	for i := range clocks {
		clocks[i] = vclock.New(n)
	}
	areas := make(map[memory.AreaID]*gtArea)
	stateOf := func(id memory.AreaID) *gtArea {
		st, ok := areas[id]
		if !ok {
			st = &gtArea{v: vclock.New(n), w: vclock.New(n)}
			areas[id] = st
		}
		return st
	}
	lockSlots := make(map[memory.AreaID]vclock.VC)
	barrierBuf := make(map[int][]int) // epoch -> participants seen

	res := &Result{Racy: make(map[AccessID]bool), Clocks: make(map[AccessID]vclock.VC)}
	pairSet := make(map[Pair]bool)

	for _, e := range tr.Events {
		switch e.Kind {
		case trace.EvPut, trace.EvGet, trace.EvAtomic:
			res.Accesses++
			p := e.Proc
			clocks[p].Tick(p)
			k := clocks[p].Copy()
			id := AccessID{Proc: p, Seq: e.Seq}
			st := stateOf(e.Area)
			isWrite := e.Kind.IsWrite()
			res.Clocks[id] = k
			for _, h := range st.hist {
				if !isWrite && !h.write {
					continue // read-read never conflicts
				}
				if opt.WordLevel && (e.Off+e.Count <= h.off || h.off+h.count <= e.Off) {
					continue // disjoint word ranges: area-level false sharing
				}
				res.ConflictPairs++
				if vclock.ConcurrentWith(k, h.clock) {
					pr := makePair(h.id, id, e.Area)
					if !pairSet[pr] {
						pairSet[pr] = true
						res.Pairs = append(res.Pairs, pr)
					}
					res.Racy[id] = true
				}
			}
			st.hist = append(st.hist, histEntry{id: id, write: isWrite, clock: k, off: e.Off, count: e.Count})
			if len(st.hist) > res.PeakHistory {
				res.PeakHistory = len(st.hist)
			}
			// Reference state update mirrors core.NewExactVWDetector.
			st.v.Merge(k)
			if isWrite {
				st.w = st.v.Copy()
				if opt.AbsorbOnPutAck {
					clocks[p].Merge(st.v)
				}
			} else if opt.AbsorbOnGetReply {
				clocks[p].Merge(st.w)
			}
			if opt.PruneHistory {
				res.Pruned += pruneHistory(st, clocks)
			}
		case trace.EvLockAcq:
			clocks[e.Proc].Tick(e.Proc)
			if slot, ok := lockSlots[e.Area]; ok {
				clocks[e.Proc].Merge(slot)
			}
		case trace.EvLockRel:
			clocks[e.Proc].Tick(e.Proc)
			lockSlots[e.Area] = clocks[e.Proc].Copy()
		case trace.EvBarrier:
			clocks[e.Proc].Tick(e.Proc)
			barrierBuf[e.Epoch] = append(barrierBuf[e.Epoch], e.Proc)
			if len(barrierBuf[e.Epoch]) == n {
				merged := vclock.New(n)
				for _, q := range barrierBuf[e.Epoch] {
					merged.Merge(clocks[q])
				}
				for _, q := range barrierBuf[e.Epoch] {
					clocks[q] = merged.Copy()
				}
				delete(barrierBuf, e.Epoch)
			}
		}
	}
	sort.Slice(res.Pairs, func(i, j int) bool {
		a, b := res.Pairs[i], res.Pairs[j]
		if a.A != b.A {
			if a.A.Proc != b.A.Proc {
				return a.A.Proc < b.A.Proc
			}
			return a.A.Seq < b.A.Seq
		}
		if a.B != b.B {
			if a.B.Proc != b.B.Proc {
				return a.B.Proc < b.B.Proc
			}
			return a.B.Seq < b.B.Seq
		}
		return a.Area < b.Area
	})
	return res
}

// Score is the confusion summary of a detector against ground truth,
// measured on the "flagged access" level: ground truth marks the accesses
// that have a concurrent conflicting predecessor; a detector flags the
// accesses whose check failed.
type Score struct {
	TP, FP, FN           int
	Precision, Recall    float64
	TruePairs, Flagged   int
	DetectorName         string
	FalsePositiveSamples []AccessID
}

// ScoreReports compares a detector's reports against ground truth.
func ScoreReports(truth *Result, name string, reports []core.Report) Score {
	flagged := make(map[AccessID]bool)
	for _, r := range reports {
		flagged[AccessID{Proc: r.Current.Proc, Seq: r.Current.Seq}] = true
	}
	s := Score{DetectorName: name, TruePairs: len(truth.Pairs), Flagged: len(flagged)}
	for id := range flagged {
		if truth.Racy[id] {
			s.TP++
		} else {
			s.FP++
			if len(s.FalsePositiveSamples) < 5 {
				s.FalsePositiveSamples = append(s.FalsePositiveSamples, id)
			}
		}
	}
	for id := range truth.Racy {
		if !flagged[id] {
			s.FN++
		}
	}
	if s.TP+s.FP > 0 {
		s.Precision = float64(s.TP) / float64(s.TP+s.FP)
	} else {
		s.Precision = 1
	}
	if s.TP+s.FN > 0 {
		s.Recall = float64(s.TP) / float64(s.TP+s.FN)
	} else {
		s.Recall = 1
	}
	return s
}

// String renders the score as one table row.
func (s Score) String() string {
	return fmt.Sprintf("%-12s TP=%-4d FP=%-4d FN=%-4d precision=%.3f recall=%.3f",
		s.DetectorName, s.TP, s.FP, s.FN, s.Precision, s.Recall)
}
