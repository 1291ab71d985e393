package dsmrace

import (
	"errors"
	"testing"

	"dsmrace/internal/dsm"
	"dsmrace/internal/fault"
	"dsmrace/internal/rdma"
	"dsmrace/internal/sim"
	"dsmrace/internal/workload"
)

// runFaulty executes one workload with an optional fault schedule and
// returns its fingerprint plus the cluster for pool audits. kernels=0 is
// the plain single kernel.
func runFaulty(t *testing.T, w workload.Workload, sched *fault.Schedule,
	kernels int, seed int64, mut func(*rdma.Config)) (multiFingerprint, *dsm.Cluster) {
	t.Helper()
	d, err := NewDetector("vw-exact")
	if err != nil {
		t.Fatal(err)
	}
	rcfg := rdma.DefaultConfig(d, nil)
	if mut != nil {
		mut(&rcfg)
	}
	cfg := dsm.Config{
		Procs: w.Procs, Seed: seed, RDMA: rcfg,
		Kernels: kernels, Partition: "blocks", Label: w.Name, Faults: sched,
	}
	if w.SharedRand {
		cfg.SerialOnly = true
	}
	if cfg.LocalityGroup == 0 {
		cfg.LocalityGroup = w.LocalityGroup
	}
	c, err := dsm.New(cfg)
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
	return multiFingerprintOf(res), c
}

func auditPools(t *testing.T, c *dsm.Cluster, label string) {
	t.Helper()
	sys := c.System()
	for s := 0; s < sys.PoolShards(); s++ {
		if b := sys.PoolBalanceShard(s); b != (rdma.PoolBalance{}) {
			t.Fatalf("%s: pool shard %d unbalanced: %+v", label, s, b)
		}
	}
}

// TestFaultZeroFaultDifferential is the tentpole's first gate: enabling the
// fault layer with a benign schedule — the machinery threaded, no events,
// no drop rules — must leave every fingerprint bit-identical to a run with
// no fault layer at all, at K ∈ {1, 2, 4}, with every pool balanced.
func TestFaultZeroFaultDifferential(t *testing.T) {
	workloads := []workload.Workload{
		workload.Migratory(16, 3, 4),
		workload.MigratoryGroups(16, 4, 2, 4),
		workload.ProducerConsumerChain(8, 2, 4, 2),
	}
	benign := &fault.Schedule{Seed: 7}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			want, _ := runFaulty(t, w, nil, 0, 3, nil)
			for _, k := range []int{1, 2, 4} {
				got, c := runFaulty(t, w, benign, k, 3, nil)
				g, wnt := got, want
				g.kernels, wnt.kernels = 0, 0
				if g != wnt {
					t.Fatalf("k=%d: benign fault layer perturbed the run:\n got  %+v\n want %+v", k, g, wnt)
				}
				auditPools(t, c, w.Name)
			}
		})
	}
}

// TestFaultArmedIdleDifferential pins the armed-but-idle contract: a
// schedule whose only content is a zero-probability drop rule arms every
// deadline (the rule itself is pruned from the per-send consult path at Arm
// time, since it can never fire), yet never perturbs
// behaviour — races, messages, bytes, virtual duration and final memory all
// match the fault-free run. Only the event count may grow (watchdog scans),
// which is exactly the overhead the E_Fault bench family meters in wall
// time.
func TestFaultArmedIdleDifferential(t *testing.T) {
	w := workload.Migratory(16, 3, 4)
	armed := &fault.Schedule{
		Seed: 7,
		Drop: []fault.DropRule{{Kind: fault.AnyKind, Src: fault.AnyNode, Dst: fault.AnyNode, P: 0}},
	}
	clean, _ := runFaulty(t, w, nil, 0, 3, nil)
	want, _ := runFaulty(t, w, armed, 0, 3, nil)
	// Against the fault-free run only the bookkeeping may move: watchdog
	// scans add events, and the last op's already-filed deadline scan
	// stretches the virtual end time. Races, messages, bytes and memory
	// must not.
	a, b := want, clean
	a.events, b.events = 0, 0
	a.dur, b.dur = 0, 0
	if a != b {
		t.Fatalf("armed-idle run diverged beyond bookkeeping:\n got  %+v\n want %+v", a, b)
	}
	// Across kernel counts the armed run is bit-identical to itself.
	for _, k := range []int{1, 2, 4} {
		got, c := runFaulty(t, w, armed, k, 3, nil)
		g, wnt := got, want
		g.kernels, wnt.kernels = 0, 0
		if g != wnt {
			t.Fatalf("k=%d: armed-idle run not deterministic:\n got  %+v\n want %+v", k, g, wnt)
		}
		auditPools(t, c, "armed-idle")
	}
}

// hostileSchedule is the determinism suite's adversarial plan: background
// loss on every message kind, a link outage window, and a crash with
// re-homing followed by a restart.
func hostileSchedule() *fault.Schedule {
	return &fault.Schedule{
		Seed: 11,
		Events: []fault.Event{
			{At: 20 * sim.Microsecond, Op: fault.CutLink, Src: 1, Dst: 2},
			{At: 80 * sim.Microsecond, Op: fault.HealLink, Src: 1, Dst: 2},
			{At: 100 * sim.Microsecond, Op: fault.Crash, Node: 2},
			{At: 240 * sim.Microsecond, Op: fault.Restart, Node: 2},
		},
		Drop: []fault.DropRule{{Kind: fault.AnyKind, Src: fault.AnyNode, Dst: fault.AnyNode, P: 0.03}},
	}
}

// TestFaultScheduleDeterminism is the tentpole's second gate: a hostile
// schedule — drops, a partition window, a crash with failover and restart —
// must replay bit-identically across 3 repeated runs and across kernel
// counts, with every pooled struct reclaimed. The workloads are the hostile
// (barrier-free, unreachable-tolerant) uniform and group patterns.
func TestFaultScheduleDeterminism(t *testing.T) {
	workloads := []workload.Workload{
		workload.HostileUniform(12, 24, 4, 40),
		workload.HostileGroups(12, 4, 6, 4),
	}
	sched := hostileSchedule()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			want, _ := runFaulty(t, w, sched, 0, 5, nil)
			for _, k := range []int{1, 2, 4, 8} {
				for rep := 0; rep < 3; rep++ {
					got, c := runFaulty(t, w, sched, k, 5, nil)
					g, wnt := got, want
					g.kernels, wnt.kernels = 0, 0
					if g != wnt {
						t.Fatalf("k=%d rep=%d: faulty schedule not deterministic:\n got  %+v\n want %+v",
							k, rep, g, wnt)
					}
					auditPools(t, c, w.Name)
				}
			}
			// Both barrier regimes must replay the hostile schedule
			// bit-identically too.
			eachBarrierRegime(t, func(t *testing.T) {
				for _, k := range []int{2, 4, 8} {
					got, c := runFaulty(t, w, sched, k, 5, nil)
					g, wnt := got, want
					g.kernels, wnt.kernels = 0, 0
					if g != wnt {
						t.Fatalf("k=%d: faulty schedule not deterministic:\n got  %+v\n want %+v", k, g, wnt)
					}
					auditPools(t, c, w.Name)
				}
			})
		})
	}
}

// TestFaultHealBeforeRetry pins retry idempotence end to end: a link outage
// shorter than the retry budget's reach drops first attempts, the home
// serves retransmissions (deduplicating re-granted locks by request id),
// and every operation still completes — the run's final memory is
// bit-identical to the fault-free run's, no operation surfaces
// ErrUnreachable, and the outcome is identical at every kernel count.
func TestFaultHealBeforeRetry(t *testing.T) {
	w := workload.HostileMigratory(6, 8, 4)
	sched := &fault.Schedule{
		Seed: 3,
		Events: []fault.Event{
			{At: 30 * sim.Microsecond, Op: fault.CutLink, Src: 2, Dst: 0},
			{At: 95 * sim.Microsecond, Op: fault.HealLink, Src: 2, Dst: 0},
		},
	}
	clean, _ := runFaulty(t, w, nil, 0, 9, nil)
	want, _ := runFaulty(t, w, sched, 0, 9, nil)
	if want.memory != clean.memory {
		t.Fatalf("heal-before-retry lost operations:\n faulty %q\n clean  %q", want.memory, clean.memory)
	}
	for _, k := range []int{1, 2, 4} {
		got, c := runFaulty(t, w, sched, k, 9, nil)
		g, wnt := got, want
		g.kernels, wnt.kernels = 0, 0
		if g != wnt {
			t.Fatalf("k=%d: heal-before-retry run not deterministic:\n got  %+v\n want %+v", k, g, wnt)
		}
		auditPools(t, c, "heal-before-retry")
	}
}

// TestFaultCrashRehoming pins crash recovery without restart: the crashed
// node's home areas re-home to the deterministic successor after
// FailoverDelay, survivors complete against it, and the whole thing replays
// identically across kernel counts with balanced pools.
func TestFaultCrashRehoming(t *testing.T) {
	w := workload.HostileGroups(8, 4, 6, 4)
	sched := &fault.Schedule{
		Seed: 13,
		Events: []fault.Event{
			// Node 0 homes the first group's area; its crash forces the
			// group onto the successor for the rest of the run.
			{At: 60 * sim.Microsecond, Op: fault.Crash, Node: 0},
		},
	}
	want, _ := runFaulty(t, w, sched, 0, 7, nil)
	for _, k := range []int{1, 2, 4} {
		got, c := runFaulty(t, w, sched, k, 7, nil)
		g, wnt := got, want
		g.kernels, wnt.kernels = 0, 0
		if g != wnt {
			t.Fatalf("k=%d: crash re-homing not deterministic:\n got  %+v\n want %+v", k, g, wnt)
		}
		auditPools(t, c, "crash-rehoming")
	}
}

// TestFaultCrashDeliveryDropEveryPartition crashes a home while requests
// and invalidations to it are in flight, at instants spread across several
// round trips, with detection off — an uninstrumented run, so no clock rides
// any message (TestClocklessRunShipsNoClock) and the outcome cannot depend
// on the clock wire format. A message the crashed
// destination drops at delivery must bounce (a NACK for a request, a
// vacuous ack for an invalidation) whether or not its sender shares the
// destination's kernel shard: one kernel, two shards (sender and home
// together) and four (apart) must replay identically.
func TestFaultCrashDeliveryDropEveryPartition(t *testing.T) {
	w := workload.HostileUniform(4, 8, 4, 30)
	for _, coh := range []string{"write-update", "write-invalidate"} {
		mut := func(c *rdma.Config) {
			c.Detector, c.Collector = nil, nil
			c.Coherence = mustCoherence(coh)
		}
		for at := 20 * sim.Microsecond; at < 28*sim.Microsecond; at += 397 {
			sched := &fault.Schedule{Seed: 5, Events: []fault.Event{{At: at, Op: fault.Crash, Node: 0}}}
			want, _ := runFaulty(t, w, sched, 0, 11, mut)
			for _, k := range []int{1, 2, 4} {
				got, c := runFaulty(t, w, sched, k, 11, mut)
				g, wnt := got, want
				g.kernels, wnt.kernels = 0, 0
				if g != wnt {
					t.Fatalf("%s, crash at %v, k=%d: delivery-time drop recovered differently:\n got  %+v\n want %+v", coh, at, k, g, wnt)
				}
				auditPools(t, c, coh+"/crash-delivery-drop")
			}
		}
	}
}

// TestFaultCoherenceBackends runs the fault differential against the causal
// and MESI backends: a benign fault layer must stay invisible at every
// kernel count, and a hostile schedule — drops, an outage window, a crash
// with restart — must replay bit-identically, with every pooled struct
// (including the MESI downgrade/writeback path's) reclaimed to zero
// balance.
func TestFaultCoherenceBackends(t *testing.T) {
	for _, coh := range []string{"causal", "mesi"} {
		coh := coh
		mut := func(c *rdma.Config) { c.Coherence = mustCoherence(coh) }
		t.Run(coh, func(t *testing.T) {
			w := workload.Migratory(16, 3, 4)
			benign := &fault.Schedule{Seed: 7}
			want, _ := runFaulty(t, w, nil, 0, 3, mut)
			for _, k := range []int{1, 2, 4} {
				got, c := runFaulty(t, w, benign, k, 3, mut)
				g, wnt := got, want
				g.kernels, wnt.kernels = 0, 0
				if g != wnt {
					t.Fatalf("k=%d: benign fault layer perturbed a %s run:\n got  %+v\n want %+v", k, coh, g, wnt)
				}
				auditPools(t, c, coh+"/benign")
			}
			hw := workload.HostileUniform(12, 24, 4, 40)
			sched := hostileSchedule()
			hwant, _ := runFaulty(t, hw, sched, 0, 5, mut)
			for _, k := range []int{1, 2, 4} {
				got, c := runFaulty(t, hw, sched, k, 5, mut)
				g, wnt := got, hwant
				g.kernels, wnt.kernels = 0, 0
				if g != wnt {
					t.Fatalf("k=%d: hostile %s schedule not deterministic:\n got  %+v\n want %+v", k, coh, g, wnt)
				}
				auditPools(t, c, coh+"/hostile")
			}
		})
	}
}

// TestFaultFacadeRunSpec pins the facade plumbing: RunSpec.Faults reaches
// the cluster, a benign schedule stays invisible, and a hostile one leaves
// the run deterministic.
func TestFaultFacadeRunSpec(t *testing.T) {
	spec := RunSpec{
		Procs:    8,
		Seed:     2,
		Detector: "vw-exact",
		Setup:    func(c *Cluster) error { return c.Alloc("obj", 0, 4) },
		Program: func(p *Proc) error {
			for r := 0; r < 3; r++ {
				if p.Crashed() {
					return nil
				}
				if err := p.Put("obj", p.ID()%4, Word(p.ID())); err != nil {
					if errors.Is(err, ErrUnreachable) {
						continue
					}
					return err
				}
			}
			return nil
		},
	}
	base, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = &FaultSchedule{Seed: 1}
	benign, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintOf(base) != fingerprintOf(benign) {
		t.Fatalf("benign RunSpec.Faults perturbed the run:\n got  %+v\n want %+v",
			fingerprintOf(benign), fingerprintOf(base))
	}
	spec.Faults = &FaultSchedule{
		Seed: 1,
		Drop: []DropRule{{Kind: FaultAnyKind, Src: FaultAnyNode, Dst: FaultAnyNode, P: 0.05}},
	}
	first, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintOf(first) != fingerprintOf(second) {
		t.Fatalf("hostile RunSpec.Faults not deterministic:\n first  %+v\n second %+v",
			fingerprintOf(first), fingerprintOf(second))
	}
}
