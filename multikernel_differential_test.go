package dsmrace

import (
	"fmt"
	"runtime"
	"testing"

	"dsmrace/internal/coherence"
	"dsmrace/internal/dsm"
	"dsmrace/internal/network"
	"dsmrace/internal/rdma"
	"dsmrace/internal/workload"
)

// multiFingerprint extends runFingerprint with everything else a partition
// could plausibly disturb: coherence counters and the final memory image.
type multiFingerprint struct {
	runFingerprint
	coh     CoherenceStats
	memory  string
	kernels int
}

func multiFingerprintOf(res *Result) multiFingerprint {
	mem := ""
	for node, words := range res.Memory {
		for off, w := range words {
			if w != 0 {
				mem += fmt.Sprintf("%d:%d=%d;", node, off, w)
			}
		}
	}
	return multiFingerprint{
		runFingerprint: fingerprintOf(res),
		coh:            res.Coherence,
		memory:         mem,
		kernels:        res.Kernels,
	}
}

// multiDiffSchedules are the adversarial schedules of the multi-kernel
// differential: every transport/detector mode whose bookkeeping the
// partition had to reshape (sharded pools, word-granularity absorb merges
// shipped as sparse clocks, write-invalidate directory fan-out, causal update fan-out with
// dependency clocks, MESI exclusive grants and cross-shard recalls, the
// literal protocol's five-hop chains, deferred-jitter replay, the
// uninstrumented path whose grants and barrier releases cross shards with
// no clock), over workloads whose traffic
// crosses shards (migratory: one global lock ring), stays mostly local
// (groups), and mixes barriers with caching (prodchain).
var multiDiffSchedules = []struct {
	name string
	mk   func() workload.Workload
	mut  func(*rdma.Config)
	jit  float64
}{
	{name: "migratory/wu", mk: func() workload.Workload { return workload.Migratory(24, 4, 8) }},
	{name: "migratory/wi", mk: func() workload.Workload { return workload.Migratory(24, 4, 8) },
		mut: func(c *rdma.Config) { c.Coherence = mustCoherence("write-invalidate") }},
	{name: "migratory/causal", mk: func() workload.Workload { return workload.Migratory(24, 4, 8) },
		mut: func(c *rdma.Config) { c.Coherence = mustCoherence("causal") }},
	{name: "migratory/mesi", mk: func() workload.Workload { return workload.Migratory(24, 4, 8) },
		mut: func(c *rdma.Config) { c.Coherence = mustCoherence("mesi") }},
	{name: "migratory/jitter", mk: func() workload.Workload { return workload.Migratory(24, 4, 8) }, jit: 0.3},
	{name: "migratory/literal", mk: func() workload.Workload { return workload.Migratory(16, 3, 4) },
		mut: func(c *rdma.Config) { c.Protocol = rdma.ProtocolLiteral }},
	// Sparse (compressed) clocks merged across a word fan-out.
	{name: "migratory/compress", mk: func() workload.Workload { return workload.Migratory(24, 4, 8) },
		mut: func(c *rdma.Config) { c.Granularity = rdma.GranularityWord }},
	{name: "migratory/no-absorb", mk: func() workload.Workload { return workload.Migratory(24, 4, 8) },
		mut: func(c *rdma.Config) { c.AbsorbOnGetReply = false; c.AbsorbOnPutAck = false }},
	{name: "migratory/off", mk: func() workload.Workload { return workload.Migratory(24, 4, 8) }, mut: detectionOff},
	{name: "groups/wu", mk: func() workload.Workload { return workload.MigratoryGroups(24, 4, 4, 8) }},
	{name: "groups/jitter", mk: func() workload.Workload { return workload.MigratoryGroups(24, 4, 4, 8) }, jit: 0.25},
	{name: "prodchain/wu", mk: func() workload.Workload { return workload.ProducerConsumerChain(12, 3, 8, 3) }},
	{name: "prodchain/wi", mk: func() workload.Workload { return workload.ProducerConsumerChain(12, 3, 8, 3) },
		mut: func(c *rdma.Config) { c.Coherence = mustCoherence("write-invalidate") }},
	{name: "prodchain/causal", mk: func() workload.Workload { return workload.ProducerConsumerChain(12, 3, 8, 3) },
		mut: func(c *rdma.Config) { c.Coherence = mustCoherence("causal") }},
	{name: "prodchain/mesi", mk: func() workload.Workload { return workload.ProducerConsumerChain(12, 3, 8, 3) },
		mut: func(c *rdma.Config) { c.Coherence = mustCoherence("mesi") }},
	{name: "prodchain/off", mk: func() workload.Workload { return workload.ProducerConsumerChain(12, 3, 8, 3) },
		mut: func(c *rdma.Config) { detectionOff(c); c.Coherence = mustCoherence("write-invalidate") }},
	{name: "random/serial-degrade", mk: func() workload.Workload {
		return workload.Random(workload.RandomSpec{
			Procs: 12, Areas: 16, AreaWords: 4, OpsPerProc: 30, ReadPercent: 40, BarrierEvery: 10,
		})
	}},
}

// detectionOff turns a schedule into an uninstrumented run: no detector and
// no tracing, so no clock is kept or shipped (rdma.System.ClocksOn).
func detectionOff(c *rdma.Config) { c.Detector, c.Collector = nil, nil }

func mustCoherence(name string) coherence.Protocol {
	p, err := coherence.FromName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// runMultiDiff executes one schedule on a given shard count (0 = the plain
// single kernel) and returns its fingerprint plus the cluster for pool
// audits.
func runMultiDiff(t *testing.T, sched int, kernels int, partition string, seed int64) (multiFingerprint, *dsm.Cluster) {
	t.Helper()
	sc := multiDiffSchedules[sched]
	d, err := NewDetector("vw-exact")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rdma.DefaultConfig(d, nil)
	if sc.mut != nil {
		sc.mut(&cfg)
	}
	var lat network.LatencyModel
	if sc.jit > 0 {
		lat = network.Jitter{Base: network.DefaultIB(), Frac: sc.jit}
	}
	w := sc.mk()
	dcfg := dsm.Config{
		Procs: w.Procs, Seed: seed, Latency: lat, RDMA: cfg,
		Kernels: kernels, Partition: partition, Label: w.Name,
	}
	if w.SharedRand {
		dcfg.SerialOnly = true
	}
	if dcfg.LocalityGroup == 0 {
		dcfg.LocalityGroup = w.LocalityGroup
	}
	c, err := dsm.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(c); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunEach(w.Programs())
	if err != nil {
		t.Fatalf("kernels=%d: %v", kernels, err)
	}
	if ferr := res.FirstError(); ferr != nil {
		t.Fatalf("kernels=%d: %v", kernels, ferr)
	}
	if w.Check != nil {
		if err := w.Check(res); err != nil {
			t.Fatalf("kernels=%d: %v", kernels, err)
		}
	}
	return multiFingerprintOf(res), c
}

// TestMultiKernelFacade pins the RunSpec plumbing: a facade run with
// Kernels set executes sharded and matches the plain run bit-for-bit, and
// the worker budget helper divides GOMAXPROCS by the shard count.
func TestMultiKernelFacade(t *testing.T) {
	spec := RunSpec{
		Procs:    16,
		Seed:     5,
		Detector: "vw-exact",
		Setup:    func(c *Cluster) error { return c.Alloc("obj", 0, 8) },
		Program: func(p *Proc) error {
			for r := 0; r < 4; r++ {
				if err := p.Lock("obj"); err != nil {
					return err
				}
				if _, err := p.Get("obj", 0, 8); err != nil {
					p.Unlock("obj")
					return err
				}
				if err := p.Put("obj", 0, Word(p.ID())); err != nil {
					p.Unlock("obj")
					return err
				}
				if err := p.Unlock("obj"); err != nil {
					return err
				}
			}
			return nil
		},
	}
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Kernels = 4
	sharded, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Kernels != 4 {
		t.Fatalf("facade ran on %d kernels (note %q), want 4", sharded.Kernels, sharded.KernelNote)
	}
	if fingerprintOf(plain) != fingerprintOf(sharded) {
		t.Fatalf("facade sharded run diverged:\n plain   %+v\n sharded %+v",
			fingerprintOf(plain), fingerprintOf(sharded))
	}
	if w := ParallelismFor(4); w < 1 || w > Parallelism() {
		t.Fatalf("ParallelismFor(4) = %d outside [1, %d]", w, Parallelism())
	}
}

// TestPartitionKeepsGroupsIntraShard is the dsm-level half of the partition
// property test: with the locality-aware policy and the workload's declared
// group size, every MigratoryGroups ring lands inside one shard — its lock
// traffic never crosses a window barrier — and the assignment is a total
// partition of the cluster.
func TestPartitionKeepsGroupsIntraShard(t *testing.T) {
	const procs, group = 64, 8
	for _, kernels := range []int{2, 4, 8} {
		w := workload.MigratoryGroups(procs, group, 2, 4)
		d, err := NewDetector("vw-exact")
		if err != nil {
			t.Fatal(err)
		}
		c, err := dsm.New(dsm.Config{
			Procs: procs, Seed: 1, RDMA: rdma.DefaultConfig(d, nil),
			Kernels: kernels, Partition: "blocks", LocalityGroup: w.LocalityGroup,
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for g := 0; g < procs/group; g++ {
			first := c.ShardOf(g * group)
			for i := g * group; i < (g+1)*group; i++ {
				if s := c.ShardOf(i); s != first {
					t.Fatalf("kernels=%d: ring %d split across shards %d and %d", kernels, g, first, s)
				}
			}
			seen[first] = true
		}
		if len(seen) != kernels {
			t.Fatalf("kernels=%d: rings cover only %d shards", kernels, len(seen))
		}
	}
}

// eachBarrierRegime runs fn as one subtest per multi-kernel barrier regime.
// GOMAXPROCS is the only thing that selects between them — 1: the
// coordinator drives the shards inline; more: runner goroutines behind the
// spin barrier — so the sweep pins it explicitly and every host exercises
// both. Not for use under t.Parallel.
func eachBarrierRegime(t *testing.T, fn func(t *testing.T)) {
	for _, regime := range []struct {
		name  string
		procs int
	}{{"inline", 1}, {"spin", 2}} {
		t.Run(regime.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(regime.procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			fn(t)
		})
	}
}

// TestMultiKernelDifferentialModes re-runs every adversarial schedule under
// both barrier regimes, asserting the fingerprints match the single-kernel
// reference at every shard count and every pool balance settles to zero.
func TestMultiKernelDifferentialModes(t *testing.T) {
	for i, sc := range multiDiffSchedules {
		i, sc := i, sc
		t.Run(sc.name, func(t *testing.T) {
			want, _ := runMultiDiff(t, i, 0, "", 1)
			eachBarrierRegime(t, func(t *testing.T) {
				for _, k := range []int{1, 2, 4, 8} {
					got, c := runMultiDiff(t, i, k, "blocks", 1)
					g, w := got, want
					g.kernels, w.kernels = 0, 0
					if g != w {
						t.Fatalf("k=%d: fingerprints diverged:\n got  %+v\n want %+v", k, g, w)
					}
					auditPools(t, c, fmt.Sprintf("k=%d", k))
				}
			})
		})
	}
}

// TestMultiKernelDifferential is the tentpole gate: for K ∈ {1, 2, 4, 8},
// every fingerprint — race reports, virtual durations, event counts,
// per-kind message totals, coherence counters and the final memory image —
// of a partitioned multi-kernel run must be bit-identical to the
// single-kernel run, on every adversarial schedule, under both partition
// policies, and with every per-shard pool balance settling to zero.
func TestMultiKernelDifferential(t *testing.T) {
	for i, sc := range multiDiffSchedules {
		i, sc := i, sc
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 23} {
				want, _ := runMultiDiff(t, i, 0, "", seed)
				for _, k := range []int{1, 2, 4, 8} {
					for _, part := range []string{"blocks", "round-robin"} {
						got, c := runMultiDiff(t, i, k, part, seed)
						// Fingerprints compare without the shard count (a
						// degraded request legitimately reports 1).
						g, w := got, want
						g.kernels, w.kernels = 0, 0
						if g != w {
							t.Fatalf("seed %d k=%d %s: fingerprints diverged:\n got  %+v\n want %+v",
								seed, k, part, g, w)
						}
						sys := c.System()
						for s := 0; s < sys.PoolShards(); s++ {
							if b := sys.PoolBalanceShard(s); b != (rdma.PoolBalance{}) {
								t.Fatalf("seed %d k=%d %s: pool shard %d unbalanced after clean run: %+v",
									seed, k, part, s, b)
							}
						}
						if sc.name == "random/serial-degrade" && k > 1 && got.kernels != 1 {
							t.Fatalf("shared-RNG workload ran on %d kernels; must degrade to 1", got.kernels)
						}
					}
				}
			}
		})
	}
}
