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
// runs faster, never different. CI gates this alongside the T12 diff.
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
	{"random64/vw/wu", "vw", "write-update", 1011, 95856, 2816, 1547776, 0, 0, 0, "0682ddcc2dc12b4a"},
	{"random64/vw-exact/wu", "vw-exact", "write-update", 1013, 95856, 2816, 1547776, 0, 0, 0, "68ffbda30a621456"},
	{"migratory64/vw-exact/wu", "vw-exact", "write-update", 0, 3236400, 1792, 879102, 0, 0, 0, "e3b0c44298fc1c14"},
	{"migratory64/vw-exact/wi", "vw-exact", "write-invalidate", 0, 4005464, 2286, 890542, 252, 0, 251, "e3b0c44298fc1c14"},
	{"prodchain64/vw-exact/wu", "vw-exact", "write-update", 0, 107860, 3840, 2182656, 0, 0, 0, "e3b0c44298fc1c14"},
	{"prodchain64/vw-exact/wi", "vw-exact", "write-invalidate", 0, 70244, 2816, 1311232, 256, 768, 256, "e3b0c44298fc1c14"},
	{"migratory64/vw-exact/causal", "vw-exact", "causal", 0, 2461626, 15077, 2225340, 63, 189, 0, "e3b0c44298fc1c14"},
	{"migratory64/vw-exact/mesi", "vw-exact", "mesi", 0, 4786436, 2786, 921514, 252, 0, 251, "e3b0c44298fc1c14"},
	{"prodchain64/vw-exact/causal", "vw-exact", "causal", 0, 55294, 2176, 2023680, 64, 960, 0, "e3b0c44298fc1c14"},
	{"prodchain64/vw-exact/mesi", "vw-exact", "mesi", 0, 82500, 3328, 1327616, 256, 768, 256, "e3b0c44298fc1c14"},
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
