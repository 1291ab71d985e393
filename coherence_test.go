package dsmrace

import (
	"fmt"
	"testing"

	"dsmrace/internal/coherence"
	"dsmrace/internal/dsm"
	"dsmrace/internal/memory"
	"dsmrace/internal/rdma"
	"dsmrace/internal/verify"
	"dsmrace/internal/workload"
)

// runWorkloadCoh executes a freshly built workload under the named
// coherence protocol with tracing and the exact detector.
func runWorkloadCoh(t *testing.T, mk func() workload.Workload, coh string, seed int64) *dsm.Result {
	t.Helper()
	w := mk()
	d, err := NewDetector("vw-exact")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := coherence.FromName(coh)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rdma.DefaultConfig(d, nil)
	cfg.Coherence = cp
	res, err := w.Run(dsm.Config{Seed: seed, Trace: true, RDMA: cfg})
	if err != nil {
		t.Fatalf("%s under %s (seed %d): %v", w.Name, coh, seed, err)
	}
	return res
}

// pairSet renders a ground truth's racing pairs as a comparable set.
func pairSet(r *verify.Result) map[string]bool {
	out := make(map[string]bool, len(r.Pairs))
	for _, p := range r.Pairs {
		out[fmt.Sprintf("%v-%v@%d", p.A, p.B, p.Area)] = true
	}
	return out
}

// racyAreaSet reduces a ground truth to the set of areas with at least one
// racing pair.
func racyAreaSet(r *verify.Result) map[memory.AreaID]bool {
	out := make(map[memory.AreaID]bool)
	for _, p := range r.Pairs {
		out[p.Area] = true
	}
	return out
}

func diffSets(t *testing.T, label, aName, bName string, a, b map[string]bool) {
	t.Helper()
	for k := range a {
		if !b[k] {
			t.Errorf("%s: pair %s only under %s", label, k, aName)
		}
	}
	for k := range b {
		if !a[k] {
			t.Errorf("%s: pair %s only under %s", label, k, bName)
		}
	}
}

// deterministicWorkloads are the workloads whose per-process access stream
// is a function of the program alone (no kernel-RNG draws, no polling
// retries whose count depends on timing), so their sync-only ground truth
// is protocol-invariant and can be compared pair by pair.
var deterministicWorkloads = []struct {
	name string
	mk   func() workload.Workload
}{
	{"master-worker", func() workload.Workload { return workload.MasterWorker(4, 3) }},
	{"stencil1d", func() workload.Workload { return workload.Stencil1D(4, 4, 2) }},
	{"stencil1d-buggy", func() workload.Workload { return workload.StencilBuggy(4, 4, 2) }},
	{"migratory", func() workload.Workload { return workload.Migratory(4, 6, 8) }},
	{"prodchain", func() workload.Workload { return workload.ProducerConsumerChain(4, 4, 8, 3) }},
}

// TestProtocolEquivalenceGroundTruth is the protocol-equivalence property:
// for every workload with a schedule-independent access stream, the
// sync-only (protocol-invariant) ground-truth race set is identical under
// all four coherence protocols — write-update, write-invalidate, causal and
// MESI — on every seed. Message counts and timing may differ arbitrarily;
// the races a *program* contains must not.
func TestProtocolEquivalenceGroundTruth(t *testing.T) {
	for _, tc := range deterministicWorkloads {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				wu := runWorkloadCoh(t, tc.mk, "write-update", seed)
				tu := verify.GroundTruth(wu.Trace, verify.SyncOnlyOptions())
				for _, coh := range CoherenceNames()[1:] {
					res := runWorkloadCoh(t, tc.mk, coh, seed)
					tr := verify.GroundTruth(res.Trace, verify.SyncOnlyOptions())
					if tu.Accesses != tr.Accesses {
						t.Errorf("seed %d: access streams differ: %d under write-update vs %d under %s (workload not schedule-independent?)",
							seed, tu.Accesses, tr.Accesses, coh)
					}
					diffSets(t, fmt.Sprintf("seed %d", seed), "write-update", coh, pairSet(tu), pairSet(tr))
				}
			}
		})
	}
}

// TestProtocolEquivalenceRaceFree asserts that the race-free seed workloads
// stay exactly race-free — empty ground truth under the runtime's own
// absorption semantics, zero detector flags — under both protocols, even
// where retry loops make the access stream timing-dependent (the lock
// discipline orders every conflicting pair regardless of timing).
func TestProtocolEquivalenceRaceFree(t *testing.T) {
	mks := []struct {
		name string
		mk   func() workload.Workload
	}{
		{"prodcons", func() workload.Workload { return workload.ProducerConsumer(2, 3) }},
		{"random-locked", func() workload.Workload {
			return workload.Random(workload.RandomSpec{Procs: 4, Areas: 4, AreaWords: 2, OpsPerProc: 10, ReadPercent: 50, LockDiscipline: true})
		}},
		{"stencil1d", func() workload.Workload { return workload.Stencil1D(4, 4, 2) }},
		{"migratory", func() workload.Workload { return workload.Migratory(4, 6, 8) }},
		{"prodchain", func() workload.Workload { return workload.ProducerConsumerChain(4, 4, 8, 3) }},
	}
	for _, tc := range mks {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, coh := range CoherenceNames() {
				res := runWorkloadCoh(t, tc.mk, coh, 1)
				truth := verify.GroundTruth(res.Trace, verify.DefaultOptions())
				if len(truth.Pairs) != 0 {
					t.Errorf("%s: %d true racing pairs, want 0", coh, len(truth.Pairs))
				}
				if res.RaceCount != 0 {
					t.Errorf("%s: detector flagged %d races on a race-free workload", coh, res.RaceCount)
				}
			}
		})
	}
}

// TestProtocolEquivalencePipeline: the pipeline's polling loops make the
// number of flag reads timing-dependent, so pair sets cannot be compared —
// but the *structure* is protocol-invariant: flag areas race, data areas do
// not, under either protocol. The data cells are ordered through the flags'
// reads-from edges, which is why this comparison uses the runtime's own
// absorption semantics: under write-invalidate a flag poll served from a
// cached copy absorbs the copy's write clock, which a valid copy guarantees
// is the area's current one — the same edge a remote poll would get.
func TestProtocolEquivalencePipeline(t *testing.T) {
	mk := func() workload.Workload { return workload.Pipeline(4, 2) }
	wu := runWorkloadCoh(t, mk, "write-update", 1)
	wi := runWorkloadCoh(t, mk, "write-invalidate", 1)
	au := racyAreaSet(verify.GroundTruth(wu.Trace, verify.DefaultOptions()))
	ai := racyAreaSet(verify.GroundTruth(wi.Trace, verify.DefaultOptions()))
	if len(au) != len(ai) {
		t.Fatalf("racy area sets differ: %v vs %v", au, ai)
	}
	for a := range au {
		if !ai[a] {
			t.Errorf("area %d racy only under write-update", a)
		}
	}
	// 4 flag areas race (polled), 4 data areas are ordered through the
	// flags' reads-from edges.
	if len(au) != 4 {
		t.Errorf("racy areas = %d, want 4 (the flag cells)", len(au))
	}
}

// TestProtocolEquivalenceScheduleSensitive covers the workloads whose
// access stream depends on kernel-RNG interleaving (so even access counts
// differ across protocols): the racy ones must be caught, and the benign
// ones must still produce correct results, under both protocols.
func TestProtocolEquivalenceScheduleSensitive(t *testing.T) {
	mks := []struct {
		name string
		mk   func() workload.Workload
	}{
		{"random", func() workload.Workload {
			return workload.Random(workload.RandomSpec{Procs: 4, Areas: 4, AreaWords: 2, OpsPerProc: 20, ReadPercent: 50})
		}},
		{"histogram", func() workload.Workload { return workload.Histogram(4, 4, 5) }},
		{"histogram-racy", func() workload.Workload { return workload.HistogramRacy(4, 4, 5) }},
		{"master-worker", func() workload.Workload { return workload.MasterWorker(4, 3) }},
	}
	for _, tc := range mks {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, coh := range CoherenceNames() {
				res := runWorkloadCoh(t, tc.mk, coh, 1)
				truth := verify.GroundTruth(res.Trace, verify.DefaultOptions())
				w := tc.mk()
				if w.Profile != workload.RaceFree && len(truth.Pairs) == 0 {
					t.Errorf("%s: racy workload has empty ground truth", coh)
				}
			}
		})
	}
}

// TestWriteInvalidateMechanics exercises the directory state machine
// end-to-end on a hand-built program: fetch on miss, hit on re-read,
// invalidation on a third party's write, re-fetch of fresh data.
func TestWriteInvalidateMechanics(t *testing.T) {
	reads := make(chan Word, 3)
	res, err := Run(RunSpec{
		Procs:     3,
		Seed:      1,
		Detector:  "vw-exact",
		Coherence: "write-invalidate",
		Setup:     func(c *Cluster) error { return c.Alloc("x", 0, 4) },
		Programs: []Program{
			func(p *Proc) error { // home: seed, then wait out the others
				if err := p.Put("x", 0, 10, 11, 12, 13); err != nil {
					return err
				}
				p.Barrier()
				p.Barrier()
				p.Barrier()
				return nil
			},
			func(p *Proc) error { // reader: miss, hit, invalidated re-fetch
				p.Barrier()
				v, err := p.GetWord("x", 1) // miss: whole-area fetch
				if err != nil {
					return err
				}
				reads <- v
				v, err = p.GetWord("x", 2) // hit: no messages
				if err != nil {
					return err
				}
				reads <- v
				p.Barrier() // writer runs between these barriers
				p.Barrier()
				v, err = p.GetWord("x", 2) // invalidated: fetch fresh
				if err != nil {
					return err
				}
				reads <- v
				return nil
			},
			func(p *Proc) error { // writer: invalidates the reader's copy
				p.Barrier()
				p.Barrier()
				if err := p.Put("x", 2, 99); err != nil {
					return err
				}
				p.Barrier()
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := []Word{<-reads, <-reads, <-reads}; got[0] != 11 || got[1] != 12 || got[2] != 99 {
		t.Fatalf("reads = %v, want [11 12 99]", got)
	}
	if res.Coherence.Hits != 1 {
		t.Errorf("hits = %d, want 1", res.Coherence.Hits)
	}
	if res.Coherence.Fetches != 2 {
		t.Errorf("fetches = %d, want 2", res.Coherence.Fetches)
	}
	if res.Coherence.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", res.Coherence.Invalidations)
	}
}

// TestWriteInvalidateWordGranularityCompressed exercises the
// write-invalidate transport composed with word-granularity detection
// states — whose merged per-word absorb clocks ride fetch replies in the
// compressed (sparse) clock wire format — plus latency jitter, and requires
// two identical-seed runs to agree bit for bit.
func TestWriteInvalidateWordGranularityCompressed(t *testing.T) {
	run := func() *Result {
		res, err := Run(RunSpec{
			Procs: 3, Seed: 3, Detector: "vw", Coherence: "write-invalidate",
			Granularity: "word", Jitter: 0.2,
			Setup: func(c *Cluster) error { return c.Alloc("x", 0, 4) },
			Program: func(p *Proc) error {
				for i := 0; i < 30; i++ {
					if i%2 == 0 {
						if err := p.Put("x", i%4, Word(i)); err != nil {
							return err
						}
					} else if _, err := p.GetWord("x", (i+1)%4); err != nil {
						return err
					}
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.RaceCount != b.RaceCount || a.Duration != b.Duration ||
		a.NetStats != b.NetStats || a.Coherence != b.Coherence ||
		reportHash(a) != reportHash(b) {
		t.Fatalf("identical-seed write-invalidate runs diverged: %d/%d races, %v/%v, coh %+v/%+v",
			a.RaceCount, b.RaceCount, a.Duration, b.Duration, a.Coherence, b.Coherence)
	}
	if a.Coherence.Fetches == 0 {
		t.Error("no fetches — write-invalidate path not exercised")
	}
}

// TestCoherenceSpecValidation pins the facade's selector handling.
func TestCoherenceSpecValidation(t *testing.T) {
	base := RunSpec{
		Procs:   2,
		Setup:   func(c *Cluster) error { return c.Alloc("x", 0, 1) },
		Program: func(p *Proc) error { return nil },
	}
	bad := base
	bad.Coherence = "msi"
	if _, err := Run(bad); err == nil {
		t.Error("unknown coherence name accepted")
	}
	lit := base
	lit.Coherence = "write-invalidate"
	lit.Protocol = "literal"
	lit.Detector = "vw"
	if _, err := Run(lit); err == nil {
		t.Error("write-invalidate + literal wire protocol accepted")
	}
	for _, name := range []string{"", "wu", "write-update", "wi", "write-invalidate", "causal", "mesi"} {
		ok := base
		ok.Coherence = name
		if _, err := Run(ok); err != nil {
			t.Errorf("coherence %q rejected: %v", name, err)
		}
	}
}

// TestCoherenceDivergenceDirections pins the headline protocol trade-off on
// the two ownership-sensitive workloads: migration favours write-update,
// repeated consumption favours write-invalidate. The divergence must be
// measurable (>10% in message count), in opposite directions.
func TestCoherenceDivergenceDirections(t *testing.T) {
	msgs := func(mk func() workload.Workload, coh string) float64 {
		res := runWorkloadCoh(t, mk, coh, 1)
		return float64(res.NetStats.TotalMsgs)
	}
	mig := func() workload.Workload { return workload.Migratory(4, 8, 8) }
	chain := func() workload.Workload { return workload.ProducerConsumerChain(4, 6, 8, 4) }
	if wu, wi := msgs(mig, "write-update"), msgs(mig, "write-invalidate"); wi < wu*1.1 {
		t.Errorf("migratory: write-invalidate %v msgs vs write-update %v, want ≥10%% more", wi, wu)
	}
	if wu, wi := msgs(chain, "write-update"), msgs(chain, "write-invalidate"); wi > wu*0.9 {
		t.Errorf("prodchain: write-invalidate %v msgs vs write-update %v, want ≥10%% fewer", wi, wu)
	}
}
