package dsmrace

import (
	"fmt"
	"testing"

	"dsmrace/internal/coherence"
	"dsmrace/internal/dsm"
	"dsmrace/internal/rdma"
	"dsmrace/internal/workload"
)

// coherenceGolden pins the full observable output of the two
// ownership-sensitive workloads under both coherence protocols — the same
// bit-identity contract goldenRuns enforces for the random workload, here
// additionally covering the write-invalidate transport (fetch/inval message
// machinery, cache-hit absorption, patch-on-write). The hash is sha256("")
// because both workloads are race-free. Re-pinned once for the sparse clock
// wire format (sizes and virtual times moved; counts did not).
type coherenceGolden struct {
	wl, coh      string
	races        int
	dur          int64
	msgs, bytes  uint64
	fetches      uint64
	hits         uint64
	invals       uint64
	reportDigest string
}

var coherenceGoldenRuns = []coherenceGolden{
	{"migratory", "write-update", 0, 240816, 224, 15422, 0, 0, 0, "e3b0c44298fc1c14"},
	{"migratory", "write-invalidate", 0, 312792, 254, 17342, 24, 0, 23, "e3b0c44298fc1c14"},
	{"prodchain", "write-update", 0, 123332, 352, 27072, 0, 0, 0, "e3b0c44298fc1c14"},
	{"prodchain", "write-invalidate", 0, 84940, 256, 18336, 24, 72, 24, "e3b0c44298fc1c14"},
	{"migratory", "causal", 0, 176322, 223, 19512, 3, 21, 0, "e3b0c44298fc1c14"},
	{"migratory", "mesi", 0, 368764, 298, 20098, 24, 0, 23, "e3b0c44298fc1c14"},
	{"prodchain", "causal", 0, 51730, 192, 21072, 4, 92, 0, "e3b0c44298fc1c14"},
	{"prodchain", "mesi", 0, 103324, 304, 19872, 24, 72, 24, "e3b0c44298fc1c14"},
}

func coherenceGoldenWorkload(name string) workload.Workload {
	if name == "migratory" {
		return workload.Migratory(4, 8, 8)
	}
	return workload.ProducerConsumerChain(4, 6, 8, 4)
}

// TestDeterminismCoherenceFingerprints verifies fixed-seed bit-identity of
// the coherence-sensitive workloads under both protocols.
func TestDeterminismCoherenceFingerprints(t *testing.T) {
	for _, g := range coherenceGoldenRuns {
		g := g
		t.Run(fmt.Sprintf("%s/%s", g.wl, g.coh), func(t *testing.T) {
			w := coherenceGoldenWorkload(g.wl)
			d, err := NewDetector("vw-exact")
			if err != nil {
				t.Fatal(err)
			}
			cp, err := coherence.FromName(g.coh)
			if err != nil {
				t.Fatal(err)
			}
			cfg := rdma.DefaultConfig(d, nil)
			cfg.Coherence = cp
			res, err := w.Run(dsm.Config{Seed: 1, RDMA: cfg})
			if err != nil {
				t.Fatal(err)
			}
			got := coherenceGolden{
				wl: g.wl, coh: g.coh,
				races: res.RaceCount, dur: int64(res.Duration),
				msgs: res.NetStats.TotalMsgs, bytes: res.NetStats.TotalBytes,
				fetches: res.Coherence.Fetches, hits: res.Coherence.Hits,
				invals: res.Coherence.Invalidations, reportDigest: reportHash(res),
			}
			if got != g {
				t.Errorf("fingerprint drift:\n got  %+v\n want %+v", got, g)
			}
		})
	}
}
