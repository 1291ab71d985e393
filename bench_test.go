// Benchmarks regenerating the paper's evaluation artefacts. Each
// BenchmarkE_* family corresponds to one experiment in EXPERIMENTS.md;
// custom metrics report the *virtual* quantities the paper reasons about
// (messages, bytes, virtual latency) next to the host-side ns/op.
package dsmrace

import (
	"fmt"
	"testing"

	"dsmrace/internal/core"
	"dsmrace/internal/dsm"
	"dsmrace/internal/memory"
	"dsmrace/internal/rdma"
	"dsmrace/internal/workload"
)

// BenchmarkE_F2_Put measures the put primitive of Fig. 2 (detection off).
func BenchmarkE_F2_Put(b *testing.B) { benchOps(b, "off", "", 1, false) }

// BenchmarkE_F2_Get measures the get primitive of Fig. 2 (detection off).
func BenchmarkE_F2_Get(b *testing.B) { benchOps(b, "off", "", 1, true) }

// BenchmarkE_F4_ConcurrentReaders measures n readers hammering one
// initialised variable under the paper detector — all benign (Fig. 4).
func BenchmarkE_F4_ConcurrentReaders(b *testing.B) {
	spec := RunSpec{
		Procs:    4,
		Seed:     1,
		Detector: "vw-exact",
		Setup:    func(c *Cluster) error { return c.Alloc("a", 1, 1) },
	}
	n := b.N
	spec.Program = func(p *Proc) error {
		if p.ID() == 1 {
			if err := p.Put("a", 0, 7); err != nil {
				return err
			}
		}
		p.Barrier()
		for i := 0; i < n; i++ {
			if _, err := p.GetWord("a", 0); err != nil {
				return err
			}
		}
		return nil
	}
	b.ResetTimer()
	res, err := Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.RaceCount != 0 {
		b.Fatalf("benign reads raced: %d", res.RaceCount)
	}
	b.ReportMetric(0, "races")
}

// BenchmarkE_T1_ClockStorage reports detection-state bytes per area as the
// process count grows (§IV-C: clocks cannot be smaller than n; §IV-D: the
// W clock doubles memory).
func BenchmarkE_T1_ClockStorage(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				st := core.NewVWDetector().NewAreaState(n)
				bytes = st.StorageBytes()
			}
			b.ReportMetric(float64(bytes), "B/area")
		})
	}
}

// BenchmarkE_T2_Protocols contrasts message counts per put: detection off,
// piggyback, and the paper-literal Algorithms 1–5.
func BenchmarkE_T2_Protocols(b *testing.B) {
	for _, tc := range []struct{ det, proto string }{
		{"off", ""},
		{"vw", "piggyback"},
		{"vw", "literal"},
	} {
		name := tc.det
		if tc.det != "off" {
			name = tc.proto
		}
		b.Run(name, func(b *testing.B) { benchOps(b, tc.det, tc.proto, 1, false) })
	}
}

// BenchmarkE_T4_Throughput measures the random workload with detection on
// and off across cluster sizes (§V-A: debugging-scale overhead).
func BenchmarkE_T4_Throughput(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		for _, det := range []string{"off", "vw-exact"} {
			b.Run(fmt.Sprintf("n=%d/det=%s", n, det), func(b *testing.B) {
				benchThroughput(b, n, det)
			})
		}
	}
}

// BenchmarkE_Scale runs the E_Scale workloads at n ∈ {16, 64}; the n=256
// shapes are the repository benchmark's (benchmark/).
func BenchmarkE_Scale(b *testing.B) {
	for _, wl := range scaleBenchWorkloads {
		for _, n := range []int{16, 64} {
			wl, n := wl, n
			b.Run(fmt.Sprintf("%s/n=%d", wl.name, n), func(b *testing.B) {
				benchScale(b, n, wl.mk)
			})
		}
	}
}

// BenchmarkE_Partition runs the E_Partition multi-kernel shapes at n=64
// across shard counts.
// The runs are bit-identical across K (gated by the multi-kernel
// differential); ns/op is the only axis that moves.
func BenchmarkE_Partition(b *testing.B) {
	for _, wl := range scaleBenchWorkloads {
		for _, k := range []int{1, 4} {
			wl, k := wl, k
			b.Run(fmt.Sprintf("%s/n=64/k=%d", wl.name, k), func(b *testing.B) {
				benchPartition(b, 64, k, wl.mk)
			})
		}
	}
}

// BenchmarkE_Fault runs the fault-layer family: the armed-idle pair whose
// faults=off vs faults=armed ns/op delta is the zero-fault tax (a few
// percent on uniform/n=64, within host noise), and the hostile rows metering
// sustained loss and a crash/restart mid-run.
func BenchmarkE_Fault(b *testing.B) {
	for _, row := range faultBenchRows() {
		row := row
		b.Run(row.name, func(b *testing.B) { benchFault(b, row.mk, row.sched) })
	}
}

// BenchmarkE_Mcheck runs the sub-second model-checker exploration rows: one
// iteration is one whole exploration, and the metrics read as throughput
// (sched/s) and reduction (runs/op, pruned/op, dedup%). Rows whose full or
// reduced enumerations take seconds per iteration are left out.
func BenchmarkE_Mcheck(b *testing.B) {
	for _, row := range []struct {
		litmus, protocol string
		por              bool
	}{
		{"sb", "write-update", false},
		{"sb", "write-update", true},
		{"sb", "write-invalidate", true},
		{"iriw", "write-update", true},
		{"recall", "write-invalidate", true},
	} {
		row := row
		mode := "full"
		if row.por {
			mode = "por"
		}
		b.Run(fmt.Sprintf("%s/%s/%s", row.litmus, row.protocol, mode), func(b *testing.B) {
			benchMcheck(b, row.litmus, row.protocol, row.por, 0)
		})
	}
}

// BenchmarkE_Coherence contrasts the coherence protocols on the
// ownership-sensitive workloads (E-T12): migration favours write-update,
// repeated consumption favours write-invalidate; compare msgs/op.
func BenchmarkE_Coherence(b *testing.B) {
	for _, wl := range coherenceBenchWorkloads {
		for _, coh := range CoherenceNames() {
			wl, coh := wl, coh
			b.Run(fmt.Sprintf("%s/%s", wl.name, coh), func(b *testing.B) {
				benchCoherence(b, coh, wl.mk)
			})
		}
	}
}

// BenchmarkE_T6_ReadRatio sweeps the read fraction and reports the race
// flags per operation for the paper detector versus the single-clock
// baseline (the false positives W eliminates, §IV-D).
func BenchmarkE_T6_ReadRatio(b *testing.B) {
	for _, readPct := range []int{0, 50, 90, 100} {
		for _, det := range []string{"vw-exact", "single-clock"} {
			b.Run(fmt.Sprintf("read=%d/det=%s", readPct, det), func(b *testing.B) {
				d, err := NewDetector(det)
				if err != nil {
					b.Fatal(err)
				}
				w := workload.Random(workload.RandomSpec{
					Procs: 4, Areas: 4, AreaWords: 2,
					OpsPerProc: b.N, ReadPercent: readPct,
				})
				b.ResetTimer()
				res, err := w.Run(dsm.Config{Seed: 1, RDMA: rdma.DefaultConfig(d, nil)})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(res.RaceCount)/float64(4*b.N), "flags/op")
			})
		}
	}
}

// BenchmarkE_T7_Reduce contrasts the §V-B one-sided reduction with the
// collective implementation.
func BenchmarkE_T7_Reduce(b *testing.B) {
	const n = 8
	b.Run("one-sided", func(b *testing.B) {
		names := make([]string, n)
		spec := RunSpec{
			Procs: n, Seed: 1,
			Setup: func(c *Cluster) error {
				for i := range names {
					names[i] = fmt.Sprintf("part%d", i)
					if err := c.Alloc(names[i], i, 4); err != nil {
						return err
					}
				}
				return nil
			},
		}
		iters := b.N
		progs := make([]Program, n)
		progs[0] = func(p *Proc) error {
			for i := 0; i < iters; i++ {
				if _, err := p.ReduceOneSided(names, OpSum); err != nil {
					return err
				}
			}
			return nil
		}
		spec.Programs = progs
		b.ResetTimer()
		res, err := Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(res.NetStats.TotalMsgs)/float64(iters), "msgs/op")
	})
	b.Run("collective", func(b *testing.B) {
		spec := RunSpec{
			Procs: n, Seed: 1,
			Setup: func(c *Cluster) error { return c.Alloc("scratch", 0, n+1) },
		}
		iters := b.N
		spec.Program = func(p *Proc) error {
			for i := 0; i < iters; i++ {
				if _, err := p.ReduceCollective("scratch", Word(p.ID()), OpSum, 0); err != nil {
					return err
				}
			}
			return nil
		}
		b.ResetTimer()
		res, err := Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(res.NetStats.TotalMsgs)/float64(iters), "msgs/op")
	})
}

// BenchmarkE_T10_Ablations crosses protocol and granularity on the same
// racy workload.
func BenchmarkE_T10_Ablations(b *testing.B) {
	for _, proto := range []string{"piggyback", "literal"} {
		for _, gran := range []string{"area", "node"} {
			b.Run(proto+"/"+gran, func(b *testing.B) {
				spec := RunSpec{
					Procs: 3, Seed: 1, Detector: "vw", Protocol: proto, Granularity: gran,
					Setup: func(c *Cluster) error { return c.Alloc("x", 0, 1) },
				}
				iters := b.N
				spec.Program = func(p *Proc) error {
					for i := 0; i < iters; i++ {
						if err := p.Put("x", 0, Word(p.ID())); err != nil {
							return err
						}
					}
					return nil
				}
				b.ResetTimer()
				res, err := Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(res.NetStats.TotalMsgs)/float64(3*iters), "msgs/op")
				b.ReportMetric(float64(res.RaceCount)/float64(3*iters), "flags/op")
			})
		}
	}
}

// ---- micro-benchmarks of the detection hot path ----

// clockBenchSizes runs body at every micro-row clock size, plus the /mixed
// variant at the two sizes the cluster workloads run at.
func clockBenchSizes(b *testing.B, body func(b *testing.B, n int, mixed bool)) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { body(b, n, false) })
		if n == 16 || n == 256 {
			b.Run(fmt.Sprintf("n=%d/mixed", n), func(b *testing.B) { body(b, n, true) })
		}
	}
}

// BenchmarkCompareClocks measures Algorithm 3 across clock sizes.
func BenchmarkCompareClocks(b *testing.B) { clockBenchSizes(b, benchCompareClocks) }

// BenchmarkMergeClocks measures Algorithm 4 (max_clock).
func BenchmarkMergeClocks(b *testing.B) { clockBenchSizes(b, benchMergeClocks) }

// detectorBench runs the OnAccess micro row for every detector, fixed and
// /mixed, at cluster size n.
func detectorBench(b *testing.B, n int) {
	for _, d := range benchDetectors() {
		b.Run(d.Name(), func(b *testing.B) { benchDetectorOnAccess(b, d, n, false) })
		b.Run(d.Name()+"/mixed", func(b *testing.B) { benchDetectorOnAccess(b, d, n, true) })
	}
}

// BenchmarkDetectorOnAccess measures one detection step per detector. Every
// detector is required to allocate nothing per access in steady state,
// racing or not (see TestOnAccessAllocationBudget).
func BenchmarkDetectorOnAccess(b *testing.B) { detectorBench(b, 16) }

// BenchmarkDetectorOnAccess256 is the same step at cluster size 256 — the
// clock size of the benchmark's n=256 workloads.
func BenchmarkDetectorOnAccess256(b *testing.B) { detectorBench(b, 256) }

// BenchmarkCollectorSignal measures retaining one race report, with the
// report's own clock new to the intern table or already in it.
func BenchmarkCollectorSignal(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("n=%d/unique", n), func(b *testing.B) { benchCollectorSignal(b, n, true) })
		b.Run(fmt.Sprintf("n=%d/repeating", n), func(b *testing.B) { benchCollectorSignal(b, n, false) })
	}
}

// BenchmarkMemoryPutThroughput measures raw substrate bandwidth (large
// payload puts, detection off).
func BenchmarkMemoryPutThroughput(b *testing.B) {
	b.SetBytes(512 * memory.WordBytes)
	benchOps(b, "off", "", 512, false)
}
