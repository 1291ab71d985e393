package dsmrace

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dsmrace/internal/dsm"
	"dsmrace/internal/rdma"
	"dsmrace/internal/workload"
)

// The fingerprints below were captured from the seed tree (before the
// zero-allocation hot-path rework) on the mixed random workload: 4 procs,
// 6 areas of 4 words, 60 ops/proc, 40% reads, a barrier every 25 ops. They
// pin down the full observable output of a fixed-seed run — race count,
// virtual duration, message/byte totals, and a hash over every race report
// string — so any refactor of the kernel, clock, detector or transport
// layers that shifts event ordering, clock values or report content by a
// single bit fails here.
//
// The piggyback rows were re-pinned once, when piggybacked clocks moved to
// the sparse wire format: message sizes shrank, and with them virtual
// durations and (on racy rows) which accesses race. Message and event
// counts did not move, and the literal rows are unchanged.
//
// The "off" rows were re-pinned once more when an uninstrumented run stopped
// carrying clocks: its lock grants, unlocks and barrier messages became
// header-only, so bytes and duration fell while message counts stayed put.
//
// The "off" hash is sha256("") — no reports.
type goldenRun struct {
	det, proto string
	seed       int64
	races      int
	dur        int64
	msgs       uint64
	bytes      uint64
	hash       string
}

var goldenRuns = []goldenRun{
	{"vw", "piggyback", 1, 126, 190870, 496, 32480, "08bde7bfa7d36606"},
	{"vw", "piggyback", 7, 131, 181450, 496, 33064, "1a27204d225650c3"},
	{"vw", "literal", 1, 176, 979270, 2842, 153520, "cb4bf7cb68f4b4f1"},
	{"vw", "literal", 7, 174, 983834, 2878, 156304, "8743fa64fa9f343f"},
	{"vw-exact", "piggyback", 1, 143, 194046, 496, 31376, "c3b924e508e7f794"},
	{"vw-exact", "piggyback", 7, 135, 182714, 496, 30952, "1210041c89122746"},
	{"vw-exact", "literal", 1, 176, 979270, 2842, 153520, "d5252a1d085236d2"},
	{"vw-exact", "literal", 7, 181, 983834, 2878, 156304, "635470c510258f71"},
	{"single-clock", "piggyback", 1, 144, 191474, 496, 34400, "00f70e5cbd585721"},
	{"single-clock", "piggyback", 7, 146, 184756, 496, 34464, "6535ea9b10322c5d"},
	{"single-clock", "literal", 1, 178, 979270, 2842, 153520, "37b2724587dd3e00"},
	{"single-clock", "literal", 7, 178, 983834, 2878, 156304, "244c0dedc0fb4185"},
	{"epoch", "piggyback", 1, 180, 192138, 496, 24832, "f6d0421865463dd3"},
	{"epoch", "piggyback", 7, 175, 179706, 496, 24832, "73b9ab8bd84ecfcc"},
	{"lockset", "piggyback", 1, 6, 192138, 496, 24832, "91ac6b3100590805"},
	{"lockset", "piggyback", 7, 6, 179706, 496, 24832, "6178a0b8cdfdb788"},
	{"off", "piggyback", 1, 0, 184330, 496, 17792, "e3b0c44298fc1c14"},
	{"off", "piggyback", 7, 0, 178186, 496, 17792, "e3b0c44298fc1c14"},
}

func reportHash(res *Result) string {
	h := sha256.New()
	for _, r := range res.Races {
		fmt.Fprintln(h, r.String())
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestDeterminismGoldenFingerprints verifies that fixed-seed simulations are
// bit-identical to the seed tree: same race reports, same NetStats, same
// virtual durations.
func TestDeterminismGoldenFingerprints(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(fmt.Sprintf("%s/%s/seed=%d", g.det, g.proto, g.seed), func(t *testing.T) {
			d, err := NewDetector(g.det)
			if err != nil {
				t.Fatal(err)
			}
			w := workload.Random(workload.RandomSpec{
				Procs: 4, Areas: 6, AreaWords: 4, OpsPerProc: 60, ReadPercent: 40,
				BarrierEvery: 25,
			})
			cfg := rdma.DefaultConfig(d, nil)
			if g.proto == "literal" {
				cfg.Protocol = rdma.ProtocolLiteral
			}
			res, err := w.Run(dsm.Config{Seed: g.seed, RDMA: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if res.RaceCount != g.races {
				t.Errorf("races = %d, want %d", res.RaceCount, g.races)
			}
			if int64(res.Duration) != g.dur {
				t.Errorf("duration = %d, want %d", int64(res.Duration), g.dur)
			}
			if res.NetStats.TotalMsgs != g.msgs {
				t.Errorf("msgs = %d, want %d", res.NetStats.TotalMsgs, g.msgs)
			}
			if res.NetStats.TotalBytes != g.bytes {
				t.Errorf("bytes = %d, want %d", res.NetStats.TotalBytes, g.bytes)
			}
			if got := reportHash(res); got != g.hash {
				t.Errorf("report hash = %s, want %s (race report content changed)", got, g.hash)
			}
		})
	}
}

// TestDeterminismWordGranularityCompressed pins the facade path with word
// granularity and latency jitter — the word-level detection fan-out, whose
// merged absorb clocks ship in the compressed (sparse) clock wire format.
func TestDeterminismWordGranularityCompressed(t *testing.T) {
	res, err := Run(RunSpec{
		Procs: 3, Seed: 3, Detector: "vw", Granularity: "word", Jitter: 0.2,
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
	if res.RaceCount != 34 {
		t.Errorf("races = %d, want 34", res.RaceCount)
	}
	if int64(res.Duration) != 101589 {
		t.Errorf("duration = %d, want 101589", int64(res.Duration))
	}
	if res.NetStats.TotalMsgs != 180 || res.NetStats.TotalBytes != 10944 {
		t.Errorf("netstats = %d msgs / %d bytes, want 180 / 10944",
			res.NetStats.TotalMsgs, res.NetStats.TotalBytes)
	}
	if got := reportHash(res); got != "2febb3bc517877ec" {
		t.Errorf("report hash = %s, want 2febb3bc517877ec", got)
	}
}

// TestSameSeedTwiceIsIdentical runs the same racy spec twice in-process and
// requires byte-identical outcomes — catching any nondeterminism introduced
// by pooling or buffer reuse (a recycled buffer leaking stale state would
// desync the two runs' reports).
func TestSameSeedTwiceIsIdentical(t *testing.T) {
	run := func() (*Result, error) {
		d, err := NewDetector("vw")
		if err != nil {
			return nil, err
		}
		w := workload.Random(workload.RandomSpec{
			Procs: 4, Areas: 3, AreaWords: 2, OpsPerProc: 40, ReadPercent: 50,
		})
		return w.Run(dsm.Config{Seed: 42, RDMA: rdma.DefaultConfig(d, nil)})
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.RaceCount != b.RaceCount || a.Duration != b.Duration ||
		a.NetStats != b.NetStats || reportHash(a) != reportHash(b) {
		t.Fatalf("two identical-seed runs diverged: races %d/%d dur %v/%v hash %s/%s",
			a.RaceCount, b.RaceCount, a.Duration, b.Duration, reportHash(a), reportHash(b))
	}
}
