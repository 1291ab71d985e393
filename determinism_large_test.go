package dsmrace

import (
	"fmt"
	"testing"

	"dsmrace/internal/coherence"
	"dsmrace/internal/dsm"
	"dsmrace/internal/rdma"
	"dsmrace/internal/workload"
)

// largeGolden pins fixed-seed fingerprints at cluster size 64 — the
// large-n counterpart of goldenRuns and coherenceGoldenRuns. These were
// captured from the PR-2 tree (dense clocks, container/heap kernel, eager
// memory segments) and must stay bit-identical under the masked-clock
// representation, the timing-wheel kernel, the lazily-backed memory and
// every absorb-elision shortcut: the scale work is only allowed to make
// runs faster, never different. CI gates this alongside the T12 diff. They
// were re-pinned once, for the sparse clock wire format (sizes and virtual
// times moved; message, event and coherence counts did not).
type largeGolden struct {
	name, det, coh string
	races          int
	dur            int64
	msgs, bytes    uint64
	fetches, hits  uint64
	invals         uint64
	hash           string
}

var largeGoldenRuns = []largeGolden{
	{"random64/vw/wu", "vw", "write-update", 1000, 89920, 2816, 1106352, 0, 0, 0, "8645689cf586412f"},
	{"random64/vw-exact/wu", "vw-exact", "write-update", 1004, 89486, 2816, 1023752, 0, 0, 0, "8a52b72c11efaf9a"},
	{"migratory64/vw-exact/wu", "vw-exact", "write-update", 0, 2917344, 1792, 548510, 0, 0, 0, "e3b0c44298fc1c14"},
	{"migratory64/vw-exact/wi", "vw-exact", "write-invalidate", 0, 3913704, 2286, 791342, 252, 0, 251, "e3b0c44298fc1c14"},
	{"prodchain64/vw-exact/wu", "vw-exact", "write-update", 0, 99172, 3840, 1431040, 0, 0, 0, "e3b0c44298fc1c14"},
	{"prodchain64/vw-exact/wi", "vw-exact", "write-invalidate", 0, 69252, 2816, 1184256, 256, 768, 256, "e3b0c44298fc1c14"},
	{"migratory64/vw-exact/causal", "vw-exact", "causal", 0, 2369866, 15077, 2126140, 63, 189, 0, "e3b0c44298fc1c14"},
	{"migratory64/vw-exact/mesi", "vw-exact", "mesi", 0, 4695644, 2786, 823282, 252, 0, 251, "e3b0c44298fc1c14"},
	{"prodchain64/vw-exact/causal", "vw-exact", "causal", 0, 54302, 2176, 1896704, 64, 960, 0, "e3b0c44298fc1c14"},
	{"prodchain64/vw-exact/mesi", "vw-exact", "mesi", 0, 81508, 3328, 1200640, 256, 768, 256, "e3b0c44298fc1c14"},
}

func largeGoldenWorkload(name string) workload.Workload {
	switch name {
	case "migratory64/vw-exact/wu", "migratory64/vw-exact/wi",
		"migratory64/vw-exact/causal", "migratory64/vw-exact/mesi":
		return workload.Migratory(64, 4, 8)
	case "prodchain64/vw-exact/wu", "prodchain64/vw-exact/wi",
		"prodchain64/vw-exact/causal", "prodchain64/vw-exact/mesi":
		return workload.ProducerConsumerChain(64, 4, 8, 4)
	default:
		return workload.Random(workload.RandomSpec{
			Procs: 64, Areas: 96, AreaWords: 4, OpsPerProc: 20, ReadPercent: 40,
			BarrierEvery: 10,
		})
	}
}

// TestDeterminismLargeClusterFingerprints verifies 64-node fixed-seed runs
// are bit-identical to the pre-scale-work implementation, under both
// coherence protocols — and, since PR 5, at every multi-kernel shard count:
// the partitioned run must reproduce the same golden hashes the single
// kernel pins (shared-RNG workloads degrade to one kernel by declaration
// and must still match trivially).
func TestDeterminismLargeClusterFingerprints(t *testing.T) {
	for _, g := range largeGoldenRuns {
		g := g
		t.Run(g.name, func(t *testing.T) {
			check := func(t *testing.T, kernels int) {
				d, err := NewDetector(g.det)
				if err != nil {
					t.Fatal(err)
				}
				cp, err := coherence.FromName(g.coh)
				if err != nil {
					t.Fatal(err)
				}
				cfg := rdma.DefaultConfig(d, nil)
				cfg.Coherence = cp
				res, err := largeGoldenWorkload(g.name).Run(dsm.Config{Seed: 1, RDMA: cfg, Kernels: kernels})
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("races=%d dur=%d msgs=%d bytes=%d fetches=%d hits=%d invals=%d hash=%s",
					res.RaceCount, int64(res.Duration), res.NetStats.TotalMsgs, res.NetStats.TotalBytes,
					res.Coherence.Fetches, res.Coherence.Hits, res.Coherence.Invalidations, reportHash(res))
				want := fmt.Sprintf("races=%d dur=%d msgs=%d bytes=%d fetches=%d hits=%d invals=%d hash=%s",
					g.races, g.dur, g.msgs, g.bytes, g.fetches, g.hits, g.invals, g.hash)
				if got != want {
					t.Errorf("kernels=%d: fingerprint drift:\n got  %s\n want %s", kernels, got, want)
				}
			}
			for _, kernels := range []int{0, 1, 4} {
				check(t, kernels)
			}
			// The shallowest and deepest shard counts run under both barrier
			// regimes, whatever the host's core count.
			eachBarrierRegime(t, func(t *testing.T) {
				for _, kernels := range []int{2, 8} {
					check(t, kernels)
				}
			})
		})
	}
}
