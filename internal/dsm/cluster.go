package dsm

import (
	"errors"
	"fmt"

	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/fault"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/rdma"
	"dsmrace/internal/sim"
	"dsmrace/internal/trace"
	"dsmrace/internal/vclock"
)

// Config describes a cluster. The zero value is not runnable; use New to
// apply defaults.
type Config struct {
	// Procs is the number of processes (= nodes; one process per node).
	Procs int
	// PrivateWords and PublicWords size each node's segments (defaults 64Ki).
	PrivateWords, PublicWords int
	// Seed drives all simulation randomness.
	Seed int64
	// Latency is the interconnect model (default network.DefaultIB).
	Latency network.LatencyModel
	// RDMA configures the NIC layer, including the detector. Zero value
	// means rdma.DefaultConfig(nil, nil) — detection off.
	RDMA rdma.Config
	// Trace enables trace recording for offline verification.
	Trace bool
	// Label tags the run in traces and reports.
	Label string
	// MaxEvents and MaxTime bound the simulation (runaway guards).
	MaxEvents uint64
	MaxTime   sim.Time
	// Kernels requests partitioned multi-kernel execution: the cluster's
	// nodes are split across this many cooperating kernel shards that run
	// in parallel under conservative time windows, with fingerprints
	// bit-identical to the single-kernel run (see internal/sim.MultiKernel).
	// 0 or 1 selects the single kernel. The request degrades back to one
	// kernel — recorded in Result.Kernels/KernelNote — when the run cannot
	// be parallelised deterministically: serial-only programs, tracing or
	// observers (both need the single kernel's apply order across nodes),
	// or a latency model without a provable lookahead. The window and
	// barrier machinery takes no settings: whether shards run on their own
	// goroutines or inline follows GOMAXPROCS, and results never depend
	// on it.
	Kernels int
	// Partition names the node→shard policy: "blocks" (locality-aware
	// contiguous ranges, the default) or "round-robin".
	Partition string
	// LocalityGroup hints the affinity-group size for the blocks policy:
	// nodes [g*group, (g+1)*group) communicate mostly among themselves
	// (e.g. MigratoryGroups rings), so blocks are sized to whole groups and
	// their traffic never crosses a window barrier.
	LocalityGroup int
	// SerialOnly declares that the programs draw from the shared simulation
	// RNG (Proc.Rand) or share Go state across processes mid-run. Such a
	// run's draw order is the serial interleaving itself, so it cannot be
	// parallelised deterministically; Kernels degrades to 1. Workloads set
	// this via workload.Workload.SharedRand.
	SerialOnly bool
	// Chooser, when non-nil, resolves the kernel's explicit choice points
	// (sim.Config.Chooser) — the hook internal/mcheck drives to enumerate
	// delivery schedules systematically instead of sampling one from the
	// seed. Choice points are defined against the single kernel's event
	// order, so Kernels degrades to 1.
	Chooser func(n int) int
	// MetaChooser, when non-nil, resolves metadata-carrying choice points
	// (sim.Config.MetaChooser): like Chooser, but each choice arrives with
	// the delivery's (link, kind, size, area, timing) metadata so an
	// exploration driver can reason about independence without replay.
	// Single-kernel only, like Chooser.
	MetaChooser func(n int, m sim.ChoiceMeta) int
	// Faults, when non-nil, threads the deterministic fault-injection layer
	// (internal/fault) through the run: scheduled link cuts/heals, node
	// crash/restart with re-homing, probabilistic message loss, and
	// deadline/retry hardening on every initiator operation. A non-nil but
	// empty schedule enables the layer without perturbing the run — the
	// differential suite proves such a run bit-identical to Faults == nil.
	Faults *fault.Schedule
}

// Program is one process's code. It runs on a simulated process and may
// block in the Proc API. A returned error is reported in Result.Errors.
type Program func(p *Proc) error

// Result summarises a completed run.
type Result struct {
	// Races are the signalled race reports, in detection order (§IV-D:
	// signalled, never fatal).
	Races []core.Report
	// RaceCount includes reports dropped past the collector limit.
	RaceCount int
	// NetStats are the network traffic counters.
	NetStats network.Stats
	// Coherence counts protocol-level replica events (cache hits, fetches,
	// invalidations) — zero under write-update, where no replicas exist.
	Coherence coherence.Stats
	// Memory is each node's final public segment.
	Memory [][]memory.Word
	// Trace is the recorded event stream (nil unless Config.Trace).
	Trace *trace.Trace
	// Duration is the virtual time the run took.
	Duration sim.Time
	// Events is the number of simulation events executed.
	Events uint64
	// Kernels is the number of kernel shards the run actually executed on
	// (1 when a multi-kernel request degraded; see KernelNote).
	Kernels int
	// KernelNote explains a degraded Kernels request ("" when none).
	KernelNote string
	// WindowStats reports what the multi-kernel window/barrier machinery
	// did (nil on a single-kernel run): windows, adaptive extensions,
	// merged records, and barrier-vs-window wall time.
	WindowStats *sim.MultiKernelStats
	// StorageBytes is the detection metadata footprint (E-T1).
	StorageBytes int
	// Errors holds each program's returned error (index = process id).
	Errors []error
}

// FirstError returns the first non-nil program error, or nil.
func (r *Result) FirstError() error {
	for _, e := range r.Errors {
		if e != nil {
			return e
		}
	}
	return nil
}

// Cluster is a configured system ready to run one program set. Allocate
// shared variables with Alloc before calling Run; a Cluster is single-shot.
type Cluster struct {
	cfg        Config
	kernel     *sim.Kernel // single-kernel mode (nil when mk is set)
	mk         *sim.MultiKernel
	shardOf    []int
	kernelNote string
	net        *network.Network
	space      *memory.Space
	sys        *rdma.System
	col        *core.Collector
	rec        *trace.Recorder
	procs      []*Proc // the running processes (nodes given a program)
	byID       []*Proc // indexed by process id; nil where no program runs
	bar        *barrierCoord
	ran        bool
	// look is the conservative-window lookahead of the latency model,
	// computed at EVERY kernel count (including one) when faults are
	// configured: it floors the failover delay, and the flip instant must
	// match across kernel counts for fingerprints to agree.
	look sim.Time
	inj  *fault.Injector
}

// New builds a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	if cfg.Procs <= 0 {
		return nil, errors.New("dsm: Procs must be positive")
	}
	if cfg.PrivateWords <= 0 {
		cfg.PrivateWords = 1 << 16
	}
	if cfg.PublicWords <= 0 {
		cfg.PublicWords = 1 << 16
	}
	if cfg.Latency == nil {
		cfg.Latency = network.DefaultIB()
	}
	kcount := cfg.Kernels
	if kcount < 1 {
		kcount = 1
	}
	if kcount > cfg.Procs {
		kcount = cfg.Procs
	}
	note := ""
	var look sim.Time
	deferAll := false
	if kcount > 1 {
		switch {
		case cfg.SerialOnly:
			kcount, note = 1, "serial-only programs (shared RNG draws order the run)"
		case cfg.Trace:
			kcount, note = 1, "tracing needs the single kernel's apply order"
		case cfg.RDMA.Observer != nil:
			kcount, note = 1, "observers need the single kernel's apply order"
		case cfg.Chooser != nil || cfg.MetaChooser != nil:
			kcount, note = 1, "the schedule chooser is single-kernel only"
		default:
			var ok bool
			look, deferAll, ok = network.ParallelLookahead(cfg.Latency, cfg.Procs)
			if !ok {
				kcount, note = 1, "latency model admits no conservative lookahead"
			}
		}
	}
	if err := cfg.RDMA.Validate(cfg.Procs); err != nil {
		return nil, fmt.Errorf("dsm: %w", err)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Procs); err != nil {
			return nil, fmt.Errorf("dsm: %w", err)
		}
		if look == 0 {
			// Single kernel (or a degraded request): compute the lookahead
			// anyway — the failover-delay clamp must resolve to the same
			// value at every kernel count, or the re-homing instant (and
			// with it every fingerprint) would differ across K.
			if l, _, ok := network.ParallelLookahead(cfg.Latency, cfg.Procs); ok {
				look = l
			}
		}
	}
	c := &Cluster{
		cfg:        cfg,
		kernelNote: note,
		look:       look,
		space:      memory.NewSpace(cfg.Procs, cfg.PrivateWords, cfg.PublicWords),
	}
	scfg := sim.Config{Seed: cfg.Seed, MaxEvents: cfg.MaxEvents, MaxTime: cfg.MaxTime, Chooser: cfg.Chooser, MetaChooser: cfg.MetaChooser}
	if kcount > 1 {
		policy, err := sim.PartitionPolicyFromName(cfg.Partition)
		if err != nil {
			return nil, fmt.Errorf("dsm: %w", err)
		}
		c.mk = sim.NewMultiKernel(scfg, kcount, look)
		c.shardOf = sim.PartitionNodes(cfg.Procs, kcount, policy, cfg.LocalityGroup)
		c.net = network.NewSharded(c.mk, c.shardOf, cfg.Procs, cfg.Latency, deferAll)
	} else {
		c.kernel = sim.NewKernel(scfg)
		c.net = network.New(c.kernel, cfg.Procs, cfg.Latency)
	}
	if cfg.RDMA.Detector != nil {
		if cfg.RDMA.Collector == nil {
			cfg.RDMA.Collector = &core.Collector{}
		}
		c.col = cfg.RDMA.Collector
		c.cfg.RDMA = cfg.RDMA
	}
	return c, nil
}

// Kernel exposes the simulation kernel (tests and advanced harnesses) —
// nil on a multi-kernel cluster, where no single kernel exists; see
// MultiKernel and kernelFor.
func (c *Cluster) Kernel() *sim.Kernel { return c.kernel }

// MultiKernel exposes the sharded kernel of a Kernels>1 cluster (nil on a
// single kernel).
func (c *Cluster) MultiKernel() *sim.MultiKernel { return c.mk }

// KernelsEffective returns the shard count the cluster will actually run
// on, with the degrade note ("" when the request held).
func (c *Cluster) KernelsEffective() (int, string) {
	if c.mk != nil {
		return c.mk.Shards(), ""
	}
	return 1, c.kernelNote
}

// ShardOf returns the kernel shard that owns node id (0 on a single
// kernel) — placement introspection for partition-policy tests and tools.
func (c *Cluster) ShardOf(id int) int {
	if c.shardOf == nil {
		return 0
	}
	return c.shardOf[id]
}

// kernelFor returns the kernel that executes node id's events.
func (c *Cluster) kernelFor(id int) *sim.Kernel {
	if c.mk != nil {
		return c.mk.Shard(c.shardOf[id])
	}
	return c.kernel
}

// Space exposes the global address space.
func (c *Cluster) Space() *memory.Space { return c.space }

// Alloc registers a shared variable before the run (the compile-time
// placement step of §III-A).
func (c *Cluster) Alloc(name string, home, words int) error {
	_, err := c.space.Alloc(name, home, words)
	return err
}

// AllocAuto registers a shared variable with automatic placement.
func (c *Cluster) AllocAuto(name string, words int, p memory.Placement) error {
	_, err := c.space.AllocAuto(name, words, p)
	return err
}

// MustAlloc is Alloc that panics on error (setup-time convenience).
func (c *Cluster) MustAlloc(name string, home, words int) {
	if err := c.Alloc(name, home, words); err != nil {
		panic(err)
	}
}

// Run executes the same program on every process (SPMD).
func (c *Cluster) Run(prog Program) (*Result, error) {
	progs := make([]Program, c.cfg.Procs)
	for i := range progs {
		progs[i] = prog
	}
	return c.RunEach(progs)
}

// RunEach executes programs[i] on process i. len(programs) must equal
// Config.Procs; nil entries mean "no program on that node" (its memory is
// still remotely accessible — OS bypass).
func (c *Cluster) RunEach(programs []Program) (*Result, error) {
	if c.ran {
		return nil, errors.New("dsm: cluster already ran; build a new one")
	}
	if len(programs) != c.cfg.Procs {
		return nil, fmt.Errorf("dsm: %d programs for %d processes", len(programs), c.cfg.Procs)
	}
	c.ran = true

	rcfg := c.cfg.RDMA
	if rcfg == (rdma.Config{}) {
		// Zero value: take the defaults with detection off.
		rcfg = rdma.DefaultConfig(nil, nil)
	}
	if c.cfg.Trace {
		c.rec = trace.NewRecorder(c.cfg.Procs, c.cfg.Seed, c.cfg.Label)
		rcfg.Observer = recorderObserver{rec: c.rec}
	}
	c.sys = rdma.NewSystem(c.net, c.space, rcfg)
	c.col = c.sys.Collector()
	c.bar = &barrierCoord{c: c}
	for i := 0; i < c.cfg.Procs; i++ {
		c.sys.NIC(i).UserHandler = c.userHandler
	}
	if c.cfg.Faults != nil {
		// Thread the fault layer and pre-file the schedule BEFORE spawning:
		// setup-phase events sort before same-instant program events, so a
		// fault at time T is visible to every program event at T — at any
		// kernel count.
		c.inj = fault.NewInjector(c.cfg.Faults.Resolved(c.look), c.net)
		c.sys.EnableFaults(c.inj)
		c.inj.NodeCrashed = c.nodeCrashed
		c.inj.NodeRestarted = c.nodeRestarted
		c.inj.Arm()
	}

	errs := make([]error, c.cfg.Procs)
	c.byID = make([]*Proc, c.cfg.Procs)
	for i := 0; i < c.cfg.Procs; i++ {
		if programs[i] == nil {
			continue
		}
		p := &Proc{
			id:      i,
			c:       c,
			clocks:  c.sys.ClocksOn(),
			literal: rcfg.Protocol == rdma.ProtocolLiteral,
		}
		if p.clocks {
			p.clock = vclock.NewMasked(c.cfg.Procs)
		}
		c.procs = append(c.procs, p)
		c.byID[i] = p
		prog := programs[i]
		idx := i
		c.kernelFor(i).Spawn(fmt.Sprintf("P%d", i), func(sp *sim.Proc) {
			p.sp = sp
			errs[idx] = prog(p)
		})
	}

	var runErr error
	var dur sim.Time
	var events uint64
	kernels := 1
	if c.mk != nil {
		runErr = c.mk.Run()
		dur, events, kernels = c.mk.Now(), c.mk.Events(), c.mk.Shards()
	} else {
		runErr = c.kernel.Run()
		dur, events = c.kernel.Now(), c.kernel.Events()
	}
	if c.bar.merged != nil { // a deadlock or an event cap left the epoch open: no release will return its clock
		c.sys.NIC(0).AbandonBarrierClock(c.bar.merged)
	}
	if c.inj != nil {
		// The injector's bookkeeping events replicate per shard; subtract
		// them so Result.Events stays comparable across kernel counts.
		if oh := c.inj.OverheadEvents(); oh < events {
			events -= oh
		} else {
			events = 0
		}
	}
	// MESI M lines silently written can be newer than home memory; write them
	// back so the snapshot reflects every committed write.
	c.sys.FlushDirtyCopies()
	res := &Result{
		NetStats:     c.net.TotalStats(),
		Coherence:    c.sys.CoherenceStats(),
		Memory:       c.space.Snapshot(),
		Duration:     dur,
		Events:       events,
		Kernels:      kernels,
		KernelNote:   c.kernelNote,
		StorageBytes: c.sys.StorageBytes(),
		Errors:       errs,
	}
	if c.mk != nil {
		st := c.mk.Stats()
		res.WindowStats = &st
	}
	if c.col != nil {
		res.Races = c.col.Reports()
		res.RaceCount = c.col.Total()
	}
	if c.rec != nil {
		res.Trace = c.rec.Trace()
	}
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

// userHandler dispatches application-level messages (barrier protocol).
func (c *Cluster) userHandler(m *network.Message) {
	switch pl := m.Payload.(type) {
	case *rdma.BarrierMsg:
		if pl.Release {
			c.procByID(pl.Proc).barrierRelease(pl)
		} else {
			c.bar.arrive(pl)
		}
	default:
		panic(fmt.Sprintf("dsm: unexpected user payload %T", m.Payload))
	}
}

// nodeCrashed is the injector's owner-shard crash hook: flag the process so
// fault-aware programs can observe the crash (Proc.Crashed) and stop issuing.
func (c *Cluster) nodeCrashed(node int) {
	if p := c.byID[node]; p != nil {
		p.crashed = true
	}
}

// nodeRestarted brings the process back: the crash flag clears, the restart
// generation ticks (waking AwaitRestart), and the process rejoins with a
// fresh masked clock column (when clocks are on) — its pre-crash clock died
// with its volatile state, exactly like a real rejoining rank.
func (c *Cluster) nodeRestarted(node int) {
	if p := c.byID[node]; p != nil {
		p.crashed = false
		p.restarted = true
		if p.clocks {
			p.clock = vclock.NewMasked(c.cfg.Procs)
		}
	}
}

func (c *Cluster) procByID(id int) *Proc {
	if p := c.byID[id]; p != nil {
		return p
	}
	panic(fmt.Sprintf("dsm: no process %d", id))
}

// recorderObserver adapts a trace.Recorder to the rdma.Observer interface.
type recorderObserver struct{ rec *trace.Recorder }

// Access implements rdma.Observer.
func (o recorderObserver) Access(acc core.Access, area memory.Area, off, count int, at sim.Time) {
	kind := trace.EvGet
	if acc.Kind == core.Write {
		kind = trace.EvPut
	}
	var clk vclock.VC
	if acc.Clock != nil {
		clk = acc.Clock.Copy()
	}
	o.rec.Append(trace.Event{
		Kind: kind, Proc: acc.Proc, Seq: acc.Seq,
		Area: area.ID, Home: area.Home, Off: off, Count: count,
		Time: at, Clock: clk,
	})
}

// LockAcq implements rdma.Observer.
func (o recorderObserver) LockAcq(proc int, area memory.Area, at sim.Time) {
	o.rec.Append(trace.Event{Kind: trace.EvLockAcq, Proc: proc, Area: area.ID, Home: area.Home, Time: at})
}

// LockRel implements rdma.Observer.
func (o recorderObserver) LockRel(proc int, area memory.Area, at sim.Time) {
	o.rec.Append(trace.Event{Kind: trace.EvLockRel, Proc: proc, Area: area.ID, Home: area.Home, Time: at})
}

// Network exposes the simulated interconnect, primarily so tests and
// harnesses can inject link failures. The paper's model assumes a reliable
// network; a cut link therefore manifests as a blocked operation, which the
// kernel surfaces as a deadlock report naming the stuck process.
func (c *Cluster) Network() *network.Network { return c.net }

// System exposes the RDMA layer after Run has wired it (nil before), so
// tests can assert transport-level invariants — pool balance, coherence
// statistics — against full runtime runs with locks, barriers and
// collectives in play.
func (c *Cluster) System() *rdma.System { return c.sys }
