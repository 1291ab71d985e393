package dsmrace

// The benchmark bodies behind bench_test.go's Benchmark* wrappers.

import (
	"math/rand"
	"runtime"
	"testing"

	"dsmrace/internal/baseline"
	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/dsm"
	"dsmrace/internal/fault"
	"dsmrace/internal/mcheck"
	"dsmrace/internal/rdma"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
	"dsmrace/internal/workload"
)

// benchOps runs a single-writer loop of b.N remote puts/gets under the
// given spec knobs and reports virtual message/byte/latency metrics.
func benchOps(b *testing.B, detector, protocol string, payloadWords int, read bool) {
	b.Helper()
	spec := RunSpec{
		Procs:    2,
		Seed:     1,
		Detector: detector,
		Protocol: protocol,
		Setup:    func(c *Cluster) error { return c.Alloc("x", 0, max(payloadWords, 1)) },
	}
	vals := make([]Word, payloadWords)
	n := b.N
	spec.Programs = []Program{
		nil,
		func(p *Proc) error {
			for i := 0; i < n; i++ {
				if read {
					if _, err := p.Get("x", 0, payloadWords); err != nil {
						return err
					}
				} else if err := p.Put("x", 0, vals...); err != nil {
					return err
				}
			}
			return nil
		},
	}
	b.ResetTimer()
	res, err := Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(res.NetStats.TotalMsgs)/float64(n), "msgs/op")
	b.ReportMetric(float64(res.NetStats.TotalBytes)/float64(n), "wireB/op")
	b.ReportMetric(float64(res.Duration)/float64(n), "vns/op")
}

// benchThroughput is the E-T4 body: the mixed random workload, b.N ops per
// process across n processes, detection as named.
func benchThroughput(b *testing.B, n int, det string) {
	b.Helper()
	d, err := NewDetector(det)
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Random(workload.RandomSpec{
		Procs: n, Areas: 2 * n, AreaWords: 4,
		OpsPerProc: b.N, ReadPercent: 50,
	})
	b.ResetTimer()
	res, err := w.Run(dsm.Config{Seed: 1, RDMA: rdma.DefaultConfig(d, nil)})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	totalOps := float64(n * b.N)
	b.ReportMetric(float64(res.NetStats.TotalMsgs)/totalOps, "msgs/op")
	b.ReportMetric(float64(res.NetStats.TotalBytes)/totalOps, "wireB/op")
	b.ReportMetric(float64(res.Duration)/totalOps, "vns/op")
}

// benchScale is the E_Scale body: one of the large-n workloads with b.N
// rounds per process under the paper's exact detector. One op is one logical
// program operation (a critical section for the migratory families, one
// locked access for uniform), and every virtual metric — msgs/op, wireB/op,
// vns/op — is normalised by the run's total op count, the uniform accounting
// all benchmark families share.
func benchScale(b *testing.B, n int, mkW func(n, rounds int) workload.Workload) {
	b.Helper()
	d, err := NewDetector("vw-exact")
	if err != nil {
		b.Fatal(err)
	}
	w := mkW(n, b.N)
	b.ResetTimer()
	res, err := w.Run(dsm.Config{Seed: 1, RDMA: rdma.DefaultConfig(d, nil)})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	totalOps := float64(w.Procs * b.N)
	b.ReportMetric(float64(res.NetStats.TotalMsgs)/totalOps, "msgs/op")
	b.ReportMetric(float64(res.NetStats.TotalBytes)/totalOps, "wireB/op")
	b.ReportMetric(float64(res.Duration)/totalOps, "vns/op")
}

// scaleBenchWorkloads are the E_Scale workload shapes: uniform is the E_T4
// mixed random traffic under lock discipline (race-free, so the numbers
// measure detection overhead rather than report construction), migratory is
// the global lock-passing ring whose clocks go dense immediately, and groups
// is the partitioned variant whose clocks stay sparse at any cluster size.
var scaleBenchWorkloads = []struct {
	name string
	mk   func(n, rounds int) workload.Workload
}{
	{"uniform", func(n, rounds int) workload.Workload {
		return workload.Random(workload.RandomSpec{
			Procs: n, Areas: 2 * n, AreaWords: 4,
			OpsPerProc: rounds, ReadPercent: 50, LockDiscipline: true,
		})
	}},
	{"migratory", func(n, rounds int) workload.Workload { return workload.Migratory(n, rounds, 8) }},
	{"groups", func(n, rounds int) workload.Workload { return workload.MigratoryGroups(n, 8, rounds, 8) }},
}

// benchMcheck is the E_Mcheck body: one op is one complete exploration of a
// litmus/protocol pair, full enumeration or POR. The metrics expose what the
// reduction buys: sched/s is raw exploration throughput, runs/op the
// explored-schedule count (constant per row — exploration is deterministic),
// pruned/op the subtrees the POR rules cut, and dedup% the fraction of
// spawned candidates absorbed by the state-fingerprint memo.
func benchMcheck(b *testing.B, litmus, protocol string, por bool, workers int) {
	b.Helper()
	lit, err := mcheck.LitmusByName(litmus)
	if err != nil {
		b.Fatal(err)
	}
	var runs, pruned, memoHits float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := coherence.FromName(protocol)
		if err != nil {
			b.Fatal(err)
		}
		out, err := mcheck.Explore(mcheck.Config{
			Litmus: lit, Protocol: p, MaxRuns: 1 << 21, POR: por, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		runs += float64(out.Runs)
		pruned += float64(out.Pruned)
		memoHits += float64(out.MemoHits)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(runs/b.Elapsed().Seconds(), "sched/s")
	b.ReportMetric(runs/n, "runs/op")
	b.ReportMetric(pruned/n, "pruned/op")
	if cands := runs + memoHits; memoHits > 0 && cands > n {
		// Of the candidates that reached the memo, the fraction it absorbed
		// (the root prefixes of each op are not candidates).
		b.ReportMetric(100*memoHits/(cands-n), "dedup%")
	}
}

// benchPartition is the E_Partition body: one of the scale workloads at
// cluster size n on kernels shards, b.N rounds per process, locality-aware
// partitioning. Fingerprints are bit-identical across kernels (gated by the
// multi-kernel differential), so these rows measure exactly one thing: the
// wall-clock cost/benefit of partitioned execution on this host. The
// effective shard count is recorded as a metric — a serial-only workload
// (uniform draws from the shared RNG) legitimately degrades to 1 and its
// rows measure the single kernel under the request.
func benchPartition(b *testing.B, n, kernels int, mkW func(n, rounds int) workload.Workload) {
	b.Helper()
	d, err := NewDetector("vw-exact")
	if err != nil {
		b.Fatal(err)
	}
	w := mkW(n, b.N)
	b.ResetTimer()
	res, err := w.Run(dsm.Config{Seed: 1, RDMA: rdma.DefaultConfig(d, nil), Kernels: kernels})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	totalOps := float64(w.Procs * b.N)
	b.ReportMetric(float64(res.NetStats.TotalMsgs)/totalOps, "msgs/op")
	b.ReportMetric(float64(res.Duration)/totalOps, "vns/op")
	b.ReportMetric(float64(res.Kernels), "kernels")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
	if st := res.WindowStats; st != nil {
		// Window/barrier machinery counters (last iteration's run): these
		// prove whether adaptive extension fired, and how the wall clock
		// split between parallel windows and serial barriers.
		b.ReportMetric(float64(st.Windows), "mk_windows")
		b.ReportMetric(float64(st.SubWindows), "mk_subwindows")
		b.ReportMetric(float64(st.Extensions), "mk_extensions")
		b.ReportMetric(float64(st.ReplayRecords), "mk_replay_recs")
		b.ReportMetric(float64(st.WindowNs), "mk_window_ns")
		b.ReportMetric(float64(st.BarrierNs), "mk_barrier_ns")
	}
}

// benchFault is the E_Fault body: a workload with b.N ops (or rounds) per
// process under an optional fault schedule. The faults=off and faults=armed
// rows share a workload, so their host ns/op delta is the zero-fault tax of
// an armed-but-idle fault layer — deadline bookkeeping and watchdog scans;
// zero-probability drop rules are pruned from the per-send consult path at
// Arm time. Measured at a few percent on uniform/n=64, within host
// measurement noise of the 2% budget. The hostile rows meter a run that loses
// traffic and a node; their virtual metrics quantify the retry/re-homing
// cost per op.
func benchFault(b *testing.B, mkW func(rounds int) workload.Workload, sched *fault.Schedule) {
	b.Helper()
	d, err := NewDetector("vw-exact")
	if err != nil {
		b.Fatal(err)
	}
	w := mkW(b.N)
	b.ResetTimer()
	res, err := w.Run(dsm.Config{Seed: 1, RDMA: rdma.DefaultConfig(d, nil), Faults: sched})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	totalOps := float64(w.Procs * b.N)
	b.ReportMetric(float64(res.NetStats.TotalMsgs)/totalOps, "msgs/op")
	b.ReportMetric(float64(res.NetStats.TotalBytes)/totalOps, "wireB/op")
	b.ReportMetric(float64(res.Duration)/totalOps, "vns/op")
}

// faultBenchRow is one E_Fault row: a workload and its fault schedule.
type faultBenchRow struct {
	name  string
	mk    func(rounds int) workload.Workload
	sched *fault.Schedule
}

// faultBenchRows are the E_Fault family: the armed-idle overhead pair on
// the uniform lock-discipline shape at n=64, and hostile rows — sustained
// loss, and loss plus a crash/restart — on the unreachable-tolerant uniform
// shape.
func faultBenchRows() []faultBenchRow {
	uniform := func(rounds int) workload.Workload {
		return workload.Random(workload.RandomSpec{
			Procs: 64, Areas: 128, AreaWords: 4,
			OpsPerProc: rounds, ReadPercent: 50, LockDiscipline: true,
		})
	}
	hostile := func(rounds int) workload.Workload {
		return workload.HostileUniform(64, 128, 4, rounds)
	}
	armed := &fault.Schedule{
		Seed: 1,
		Drop: []fault.DropRule{{Kind: fault.AnyKind, Src: fault.AnyNode, Dst: fault.AnyNode, P: 0}},
	}
	lossy := &fault.Schedule{
		Seed: 1,
		Drop: []fault.DropRule{{Kind: fault.AnyKind, Src: fault.AnyNode, Dst: fault.AnyNode, P: 0.02}},
	}
	crash := &fault.Schedule{
		Seed: 1,
		Events: []fault.Event{
			{At: 100 * sim.Microsecond, Op: fault.Crash, Node: 2},
			{At: 400 * sim.Microsecond, Op: fault.Restart, Node: 2},
		},
		Drop: []fault.DropRule{{Kind: fault.AnyKind, Src: fault.AnyNode, Dst: fault.AnyNode, P: 0.02}},
	}
	return []faultBenchRow{
		{"uniform/n=64/faults=off", uniform, nil},
		{"uniform/n=64/faults=armed", uniform, armed},
		{"hostile-uniform/n=64/drop=0.02", hostile, lossy},
		{"hostile-uniform/n=64/crash+drop", hostile, crash},
	}
}

// benchCoherence is the E-T12 body: a coherence-sensitive workload with
// b.N rounds under the named protocol; one op is one critical section /
// stage-round, so msgs/op exposes the per-protocol wire cost.
func benchCoherence(b *testing.B, coh string, mkW func(rounds int) workload.Workload) {
	b.Helper()
	cp, err := coherence.FromName(coh)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDetector("vw-exact")
	if err != nil {
		b.Fatal(err)
	}
	cfg := rdma.DefaultConfig(d, nil)
	cfg.Coherence = cp
	w := mkW(b.N)
	b.ResetTimer()
	res, err := w.Run(dsm.Config{Seed: 1, RDMA: cfg})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	totalOps := float64(w.Procs * b.N)
	b.ReportMetric(float64(res.NetStats.TotalMsgs)/totalOps, "msgs/op")
	b.ReportMetric(float64(res.NetStats.TotalBytes)/totalOps, "wireB/op")
	b.ReportMetric(float64(res.Duration)/totalOps, "vns/op")
	b.ReportMetric(float64(res.Coherence.Hits)/totalOps, "hits/op")
	b.ReportMetric(float64(res.Coherence.Invalidations)/totalOps, "invals/op")
}

// coherenceBenchWorkloads are the protocol-divergent workloads measured
// per protocol.
var coherenceBenchWorkloads = []struct {
	name string
	mk   func(rounds int) workload.Workload
}{
	{"migratory", func(rounds int) workload.Workload { return workload.Migratory(4, rounds, 8) }},
	{"prodchain", func(rounds int) workload.Workload { return workload.ProducerConsumerChain(4, rounds, 8, 4) }},
}

// benchDetectors lists the detectors the OnAccess microbenchmark measures.
func benchDetectors() []core.Detector {
	return []core.Detector{
		core.NewVWDetector(), core.NewExactVWDetector(),
		baseline.NewSingleClock(), baseline.NewEpoch(), baseline.NewLockset(), baseline.Nop{},
	}
}

// mixedPairs is how many clock pairs a /mixed micro row rotates over: enough
// (× n components) that no branch predictor can memorise the stream. The
// fixed-pair rows beside them replay one pair, which a predictor learns
// within a few iterations — they price the instruction count, the /mixed
// rows price what real traffic pays.
const mixedPairs = 512

// mixedClockChain returns mixedPairs+1 n-component clocks shaped like the
// race-free hand-off traffic the cluster workloads produce: each clock
// covers the one before it, and every component independently either
// advanced or stayed equal.
func mixedClockChain(n int) []vclock.VC {
	r := rand.New(rand.NewSource(int64(n)))
	chain := make([]vclock.VC, mixedPairs+1)
	cur := vclock.New(n)
	for k := range chain {
		for i := range cur {
			if r.Intn(2) == 0 {
				cur[i] += 1 + uint64(r.Intn(3))
			}
		}
		chain[k] = cur.Copy()
	}
	return chain
}

// benchClockPairs returns the (x, y) pairs a clock micro row walks. Fixed is
// the single pair the rows have always used. Mixed alternates x ≤ y and
// x ≥ y neighbours of a mixedClockChain, so across the rotation a component
// is <, = or > unpredictably while every pair stays ordered: a concurrent
// pair would let Compare leave at the first block and measure nothing.
func benchClockPairs(n int, mixed bool, fixed func(x, y vclock.VC)) (xs, ys []vclock.VC) {
	if !mixed {
		x, y := vclock.New(n), vclock.New(n)
		fixed(x, y)
		return []vclock.VC{x}, []vclock.VC{y}
	}
	chain := mixedClockChain(n)
	for k := 0; k < mixedPairs; k++ {
		x, y := chain[k], chain[k+1]
		if k%2 == 1 {
			x, y = y, x
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

var benchOrderSink vclock.Order

// benchCompareClocks measures Algorithm 3 on n-component clocks.
func benchCompareClocks(b *testing.B, n int, mixed bool) {
	xs, ys := benchClockPairs(n, mixed, func(x, y vclock.VC) {
		x.Tick(0)
		y.Tick(n - 1)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(xs)
		benchOrderSink = vclock.Compare(xs[k], ys[k])
	}
}

// benchMergeClocks measures Algorithm 4 (max_clock) on n-component clocks.
// Every iteration merges into a fresh copy of x — merging into the previous
// iteration's result would find nothing left to store — so the row includes
// one n-component copy.
func benchMergeClocks(b *testing.B, n int, mixed bool) {
	xs, ys := benchClockPairs(n, mixed, func(x, y vclock.VC) {
		for i := range y {
			y[i] = uint64(i)
		}
	})
	dst := vclock.New(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(xs)
		dst = xs[k].CopyInto(dst)
		dst.Merge(ys[k])
	}
}

// benchDetectorOnAccess measures one steady-state detection step against a
// single area state, threading the absorb scratch buffer exactly as the NIC
// hot path does. The fixed stream is a rotating writer ticking one component
// per access. The mixed stream walks a mixedClockChain — writes and reads
// alternating, each clock covering the last in an unpredictable subset of
// components, every fourth access a stale clock the state already covers —
// and starts a fresh area state each lap (a few buffers per mixedPairs
// accesses, which is why the row reports a few B/op).
func benchDetectorOnAccess(b *testing.B, d core.Detector, n int, mixed bool) {
	b.Helper()
	st := d.NewAreaState(n)
	clk := vclock.NewMasked(n)
	var chain []vclock.VC
	if mixed {
		chain = mixedClockChain(n)
		clk.M.Fill(n)
	}
	var scratch vclock.Masked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := core.Access{Proc: i % n, Seq: uint64(i), Kind: core.Write, ClockNZ: clk.M}
		if mixed {
			k := i % mixedPairs
			if k == 0 {
				st = d.NewAreaState(n)
			}
			if k%4 == 3 {
				k -= 2
			}
			acc.Kind = core.AccessKind(i % 2)
			acc.Clock = chain[k]
		} else {
			clk.Tick(i % n)
			acc.Clock = clk.V
		}
		_, absorbed := st.OnAccess(acc, 0, scratch)
		if !absorbed.IsNil() {
			scratch = absorbed
		}
	}
}

// collectorPool is how many distinct clocks a /repeating CollectorSignal row
// rotates over per field: few enough that every lookup after the first lap
// is a hit.
const collectorPool = 64

// benchCollectorSignal measures what retaining one race report costs, the
// two ways the intern table can be hit. Unique is the racing process's own
// stream: every report carries a Current.Clock no earlier report had (one
// insert), against a stored clock and a prior access that repeat. Repeating
// rotates all three clocks over collectorPool values each, so once warm a
// report inserts nothing. The collector is never reset: the table and the
// slabs grow through the run as they do in a racy cluster.
func benchCollectorSignal(b *testing.B, n int, unique bool) {
	b.Helper()
	pool := func(comp int) []vclock.VC {
		out := make([]vclock.VC, collectorPool)
		for i := range out {
			out[i] = vclock.New(n)
			out[i][comp] = uint64(i + 1)
		}
		return out
	}
	cur, stored, prior := pool(0), pool(1), pool(2)
	fresh := vclock.New(n)
	rep := core.Report{Detector: "bench", Prior: &core.Access{Proc: 2, Kind: core.Write}}
	col := &core.Collector{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % collectorPool
		clk := cur[k]
		if unique {
			fresh.Tick(3)
			k, clk = 0, fresh
		}
		rep.Current = core.Access{Proc: 3, Seq: uint64(i), Kind: core.Write, Clock: clk}
		rep.StoredClock, rep.Prior.Clock = stored[k], prior[k]
		col.Signal(rep)
	}
	b.StopTimer()
	if col.Total() != b.N || len(col.Reports()) != b.N {
		b.Fatalf("collector holds %d of %d reports", len(col.Reports()), b.N)
	}
}
