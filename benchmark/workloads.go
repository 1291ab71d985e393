package main

import (
	"fmt"

	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/dsm"
	"dsmrace/internal/rdma"
	"dsmrace/internal/workload"
)

// spec is one benchmark workload: a generator, the cluster configuration it
// runs under, and its fixed sizes. Repetitions are sized by operation count,
// never by time, so two commits always do identical work per repetition;
// only the number of repetitions follows the -seconds budget.
type spec struct {
	name, why string
	// procs is the cluster size; one op is one logical program operation and
	// a repetition is procs × rounds ops (the accounting benchmarks.go uses).
	procs int
	// rounds and accRounds are the per-process op counts of a timed
	// repetition and of the traced accuracy pass.
	rounds, accRounds int
	// gomaxprocs is pinned per workload: 1 for single-kernel workloads (the
	// baton hand-offs of one kernel cross OS threads at 2, see README),
	// 2 for the two-shard workload.
	gomaxprocs int
	kernels    int
	// invalidate selects write-invalidate coherence (write-update otherwise).
	invalidate bool
	raceFree   bool
	// payloadWords is the data size of one access, for the layer drivers.
	payloadWords int
	generate     func(rounds int) workload.Workload
	// small marks the scaled-down table: layer drivers then run a fiftieth
	// of their iterations.
	small bool
}

// iters scales a layer driver's iteration count to the size table.
func (s spec) iters(n int) int {
	if s.small {
		return max(n/50, 1)
	}
	return n
}

// smallSizes is the scaled-down size table ({rounds, accRounds} per workload)
// benchmark_test.go runs under tier-1's time limit.
var smallSizes = map[string][2]int{
	"uniform-n256":     {12, 6},
	"racy-n16":         {300, 100},
	"groups-n256-k2":   {10, 4},
	"prodchain-n16-wi": {100, 30},
}

// specs returns the workload table. small swaps in smallSizes; shapes,
// cluster configuration and checks are identical.
func specs(small bool) []spec {
	all := []spec{
		{
			name:  "uniform-n256",
			why:   "dense 256-wide clocks on every lock hand-off: vclock+core dominate host time, clock bytes dominate the wire; race-free, so it measures detection, not report construction",
			procs: 256, rounds: 400, accRounds: 50, gomaxprocs: 1, kernels: 1, raceFree: true, payloadWords: 1,
			generate: func(rounds int) workload.Workload {
				return workload.Random(workload.RandomSpec{
					Procs: 256, Areas: 512, AreaWords: 4,
					OpsPerProc: rounds, ReadPercent: 50, LockDiscipline: true,
				})
			},
		},
		{
			name:  "racy-n16",
			why:   "every access takes the racing path (snapshot+merge, Report.Clone, collector) on tiny clocks; detection-off side is pure sim/network/rdma substrate; only workload with non-vacuous recall",
			procs: 16, rounds: 12000, accRounds: 1000, gomaxprocs: 1, kernels: 1, payloadWords: 1,
			generate: func(rounds int) workload.Workload {
				return workload.Random(workload.RandomSpec{
					Procs: 16, Areas: 32, AreaWords: 4,
					OpsPerProc: rounds, ReadPercent: 50,
				})
			},
		},
		{
			name:  "groups-n256-k2",
			why:   "the only two-core workload: sim.MultiKernel windows, barrier replay and merge do the work while masked clocks stay at 8 live components, so vclock/core are nearly idle",
			procs: 256, rounds: 600, accRounds: 20, gomaxprocs: 2, kernels: 2, raceFree: true, payloadWords: 8,
			generate: func(rounds int) workload.Workload {
				return workload.MigratoryGroups(256, 8, rounds, 8)
			},
		},
		{
			name:  "prodchain-n16-wi",
			why:   "write-invalidate directory, fetch/invalidate traffic, cache hits and dsm barriers; the detector sees few accesses, so a detector optimisation must show no change here",
			procs: 16, rounds: 6000, accRounds: 300, gomaxprocs: 1, kernels: 1, invalidate: true, raceFree: true, payloadWords: 8,
			generate: func(rounds int) workload.Workload {
				return workload.ProducerConsumerChain(16, rounds, 8, 4)
			},
		},
	}
	if small {
		for i := range all {
			size := smallSizes[all[i].name]
			all[i].rounds, all[i].accRounds, all[i].small = size[0], size[1], true
		}
	}
	return all
}

func specByName(name string, small bool) (spec, error) {
	var names []string
	for _, s := range specs(small) {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// ops is the op count of a repetition of the given per-process length.
func (s spec) ops(rounds int) int { return s.procs * rounds }

// variant selects what one repetition runs on top of the spec.
type variant struct {
	detect  bool
	trace   bool
	kernels int
}

// config builds the cluster configuration for one repetition. The program
// under test receives only the generated workload and this configuration;
// the seed reaches it solely as dsm.Config.Seed.
func (s spec) config(w workload.Workload, seed int64, v variant) dsm.Config {
	var det core.Detector
	if v.detect {
		det = core.NewExactVWDetector()
	}
	rc := rdma.DefaultConfig(det, nil)
	if s.invalidate {
		rc.Coherence = coherence.NewWriteInvalidate()
	}
	return dsm.Config{
		Procs:         w.Procs,
		Seed:          seed,
		RDMA:          rc,
		Trace:         v.trace,
		Label:         s.name,
		Kernels:       v.kernels,
		SerialOnly:    w.SharedRand,
		LocalityGroup: w.LocalityGroup,
		// The runaway guard defaults to 50M events; the largest repetition
		// here stays below it, but a later size change must fail loudly on a
		// check, not on the guard.
		MaxEvents: 1 << 32,
	}
}
