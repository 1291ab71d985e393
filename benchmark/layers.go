package main

import (
	"fmt"
	"runtime"
	"time"

	"dsmrace/internal/baseline"
	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/dsm"
	"dsmrace/internal/fault"
	"dsmrace/internal/mcheck"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/rdma"
	"dsmrace/internal/sim"
	"dsmrace/internal/trace"
	"dsmrace/internal/vclock"
	"dsmrace/internal/verify"
	"dsmrace/internal/workload"
)

// perLayerDefs names every metric of the traced pass; layers are the
// repository's packages. They carry no bound.
var perLayerDefs = []metricDef{
	{name: "vclock.merge_compare_ns", unit: "ns", better: "lower"},
	{name: "vclock.copy_ns", unit: "ns", better: "lower"},
	{name: "vclock.wire_bytes_per_clock", unit: "B", better: "lower"},
	{name: "core.on_access_ns", unit: "ns", better: "lower"},
	{name: "core.collector_signal_ns", unit: "ns", better: "lower"},
	{name: "core.reports_per_op", unit: "reports/op", better: "lower"},
	{name: "core.storage_bytes_per_area", unit: "B", better: "lower"},
	{name: "core.detect_slowdown", unit: "ratio", better: "lower"},
	{name: "core.detect_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "sim.event_ns", unit: "ns", better: "lower"},
	{name: "sim.handoff_ns", unit: "ns", better: "lower"},
	{name: "sim.procs2_penalty", unit: "ratio", better: "lower"},
	{name: "sim.mk_windows_per_kop", unit: "windows/kop", better: "lower"},
	{name: "sim.mk_subwindows_per_window", unit: "ratio", better: "higher"},
	{name: "sim.mk_extensions", unit: "count", better: "higher"},
	{name: "sim.mk_pipelined_replays", unit: "count", better: "higher"},
	{name: "sim.mk_replay_records_per_op", unit: "records/op", better: "lower"},
	{name: "sim.mk_barrier_share", unit: "fraction", better: "lower"},
	{name: "sim.mk_speedup", unit: "ratio", better: "higher"},
	{name: "network.send_deliver_ns", unit: "ns", better: "lower"},
	{name: "network.overhead_msgs_per_op", unit: "msgs/op", better: "lower"},
	{name: "network.overhead_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "network.wire_bytes_per_op_detect_off", unit: "B/op", better: "lower"},
	{name: "network.detect_wire_overhead", unit: "ratio", better: "lower"},
	{name: "rdma.put_rtt_ns", unit: "ns", better: "lower"},
	{name: "rdma.get_rtt_ns", unit: "ns", better: "lower"},
	{name: "rdma.lock_rtt_ns", unit: "ns", better: "lower"},
	{name: "rdma.put_rtt_detect_ns", unit: "ns", better: "lower"},
	{name: "coherence.hits_per_op", unit: "hits/op", better: "higher"},
	{name: "coherence.fetches_per_op", unit: "fetches/op", better: "lower"},
	{name: "coherence.invals_per_op", unit: "invals/op", better: "lower"},
	{name: "coherence.hit_ratio", unit: "fraction", better: "higher"},
	{name: "coherence.cached_read_ns", unit: "ns", better: "lower"},
	{name: "memory.alloc_ns", unit: "ns", better: "lower"},
	{name: "memory.rw_ns", unit: "ns", better: "lower"},
	{name: "dsm.new_cluster_us", unit: "us", better: "lower"},
	{name: "dsm.vns_per_op_detect_off", unit: "vns/op", better: "lower"},
	{name: "dsm.detect_vns_overhead", unit: "ratio", better: "lower"},
	{name: "workload.generate_us", unit: "us", better: "lower"},
	{name: "verify.ground_truth_us_per_kevent", unit: "us/kevent", better: "lower"},
	{name: "fault.armed_tax", unit: "ratio", better: "lower"},
	{name: "fault.hostile_vns_per_op", unit: "vns/op", better: "lower"},
	{name: "mcheck.sched_per_s", unit: "1/s", better: "higher"},
	{name: "mcheck.runs", unit: "count", better: "lower"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
	{name: "host.preroll_s", unit: "s", better: "lower"},
	{name: "host.rep_spread", unit: "fraction", better: "lower"},
}

// driverTrials is how many times each layer driver's loop is timed; the
// median is reported.
const driverTrials = 5

// perIter times fn(iters) driverTrials times and returns the median host
// nanoseconds per iteration.
func (r *run) perIter(iters int, fn func(iters int)) float64 {
	iters = r.s.iters(iters)
	t := make([]float64, driverTrials)
	for i := range t {
		runtime.GC()
		start := time.Now()
		fn(iters)
		t[i] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(t)
}

// shape is what the layer drivers take from the workload so that each bare
// layer is exercised at the sizes the workload exercises it at.
type shape struct {
	n            int     // clock width = cluster size
	live         []int   // clock components kept live (the trace's occupancy)
	msgBytes     int     // mean message size of the vw-exact run
	payloadWords int     // words moved per access
	accesses     float64 // access events in the accuracy-pass trace
}

func (r *run) shapeOf(m measured) shape {
	tr := m.acc.res.Trace
	var accesses, liveSum int
	for _, e := range tr.Events {
		if !e.Kind.IsAccess() {
			continue
		}
		accesses++
		for _, c := range e.Clock {
			if c != 0 {
				liveSum++
			}
		}
	}
	occ := 1
	if accesses > 0 {
		occ = min(max(liveSum/accesses, 1), r.s.procs)
	}
	live := make([]int, occ)
	for i := range live {
		live[i] = i * r.s.procs / occ
	}
	st := m.on[0].res.NetStats
	return shape{
		n: r.s.procs, live: live,
		msgBytes:     int(st.TotalBytes / st.TotalMsgs),
		payloadWords: r.s.payloadWords,
		accesses:     float64(accesses),
	}
}

// perLayer runs the traced pass: one vw-exact repetition and the accuracy
// pass already ran under spans inside measure; here every layer gets its
// own driver span, and the counts come from the same Results as the spans.
func (r *run) perLayer(m measured) map[string]float64 {
	ops := float64(r.s.ops(r.s.rounds))
	on, off := m.on[0].res, m.off[0].res
	sh := r.shapeOf(m)
	opsOn := ops / median(walls(m.on))
	opsOff := ops / median(walls(m.off))
	v := map[string]float64{
		"core.reports_per_op":                  float64(on.RaceCount) / ops,
		"core.storage_bytes_per_area":          float64(on.StorageBytes) / float64(m.on[0].areas),
		"core.detect_slowdown":                 opsOff / opsOn,
		"core.detect_ns_per_op":                1e9/opsOn - 1e9/opsOff,
		"network.overhead_msgs_per_op":         float64(on.NetStats.OverheadMsgs()) / ops,
		"network.overhead_bytes_per_op":        float64(on.NetStats.OverheadBytes()) / ops,
		"network.wire_bytes_per_op_detect_off": float64(off.NetStats.TotalBytes) / ops,
		"network.detect_wire_overhead":         float64(on.NetStats.TotalBytes) / float64(off.NetStats.TotalBytes),
		"coherence.hits_per_op":                float64(on.Coherence.Hits) / ops,
		"coherence.fetches_per_op":             float64(on.Coherence.Fetches) / ops,
		"coherence.invals_per_op":              float64(on.Coherence.Invalidations) / ops,
		"dsm.vns_per_op_detect_off":            float64(off.Duration) / ops,
		"dsm.detect_vns_overhead":              float64(on.Duration) / float64(off.Duration),
		"verify.ground_truth_us_per_kevent":    m.truthUs / (float64(len(m.acc.res.Trace.Events)) / 1e3),
		"host.preroll_s":                       m.prerollS,
		"host.rep_spread":                      repSpread(walls(m.on)),
		// The warm-up repetitions ran under spans, the timed pairs without.
		"trace.overhead": median(walls(m.warm)) / median(walls(m.on)),
	}
	if attempts := on.Coherence.Hits + on.Coherence.Fetches; attempts > 0 {
		v["coherence.hit_ratio"] = float64(on.Coherence.Hits) / float64(attempts)
	} else {
		v["coherence.hit_ratio"] = 0
	}

	layer := func(name string, fn func()) {
		end := r.tr.begin("layer." + name)
		fn()
		end()
	}
	layer("vclock", func() { r.vclockLayer(sh, v) })
	layer("core", func() { r.coreLayer(sh, m.acc.res.Trace, v) })
	layer("sim", func() { r.simLayer(sh, m, v) })
	layer("network", func() { r.networkLayer(sh, v) })
	layer("rdma", func() { r.rdmaLayer(sh, v) })
	layer("coherence", func() { r.coherenceLayer(sh, v) })
	layer("memory", func() { r.memoryLayer(sh, v) })
	layer("dsm", func() { r.dsmLayer(v) })
	layer("fault", func() { r.faultLayer(v) })
	layer("mcheck", func() { r.mcheckLayer(v) })
	return v
}

// liveClock returns an n-wide masked clock whose live components are
// exactly sh.live.
func liveClock(sh shape) vclock.Masked {
	c := vclock.NewMasked(sh.n)
	for _, i := range sh.live {
		c.Tick(i)
	}
	return c
}

func (r *run) vclockLayer(sh shape, v map[string]float64) {
	a, b := liveClock(sh), liveClock(sh)
	v["vclock.merge_compare_ns"] = r.perIter(200_000, func(iters int) {
		for i := 0; i < iters; i++ {
			// b stays one tick ahead in one live component, so every call
			// has something to fold in.
			b.Tick(sh.live[i%len(sh.live)])
			if a.MergeAndCompare(b) == vclock.Concurrent {
				sink++
			}
		}
	})
	var dst vclock.Masked
	v["vclock.copy_ns"] = r.perIter(200_000, func(iters int) {
		for i := 0; i < iters; i++ {
			dst = a.CopyInto(dst)
		}
	})
	sink += dst.V[0]
	v["vclock.wire_bytes_per_clock"] = float64(a.V.WireSize())
}

func (r *run) coreLayer(sh shape, tr *trace.Trace, v map[string]float64) {
	// The accuracy pass's own access stream replayed through a fresh vw-exact
	// detector, minus the same replay through the no-op detector: what is
	// left is detector cost alone, on this workload's schedule.
	replay := func(det core.Detector) float64 {
		t := make([]float64, driverTrials)
		for i := range t {
			runtime.GC()
			start := time.Now()
			reports := verify.ReplayDetector(tr, det, verify.DefaultOptions())
			t[i] = float64(time.Since(start).Nanoseconds()) / max(sh.accesses, 1)
			sink += uint64(len(reports))
		}
		return median(t)
	}
	v["core.on_access_ns"] = max(replay(core.NewExactVWDetector())-replay(baseline.Nop{}), 0)

	cur, stored, prior := liveClock(sh), liveClock(sh), liveClock(sh)
	rep := core.Report{
		Detector:    "bench",
		Current:     core.Access{Proc: sh.live[0], Kind: core.Write, Clock: cur.V},
		StoredClock: stored.V,
		Prior:       &core.Access{Proc: sh.live[len(sh.live)-1], Kind: core.Write, Clock: prior.V},
	}
	v["core.collector_signal_ns"] = r.perIter(20_000, func(iters int) {
		col := &core.Collector{}
		for i := 0; i < iters; i++ {
			// A fresh current clock per report, as a racing process's next
			// access carries; the stored and prior clocks repeat and intern.
			cur.Tick(sh.live[0])
			rep.Current.Seq = uint64(i)
			col.Signal(rep)
		}
		sink += uint64(col.Total())
	})
}

func (r *run) simLayer(sh shape, m measured, v map[string]float64) {
	v["sim.event_ns"] = r.perIter(400_000, func(iters int) {
		k := sim.NewKernel(sim.Config{Seed: 1, MaxEvents: 1 << 32})
		left := iters
		x := uint64(1)
		var fn func()
		fn = func() {
			if left > 0 {
				left--
				x = x*6364136223846793005 + 1442695040888963407
				k.Schedule(sim.Time(100+(x>>33)%2000), fn)
			}
		}
		// sh.n self-rescheduling events keep the queue at depth n.
		for i := 0; i < sh.n; i++ {
			k.Schedule(sim.Time(i), fn)
		}
		if err := k.Run(); err != nil {
			r.fail(0, "sim driver: %v", err)
		}
	})
	v["sim.handoff_ns"] = r.perIter(100_000, func(iters int) {
		k := sim.NewKernel(sim.Config{Seed: 1, MaxEvents: 1 << 32})
		var ping, pong *sim.Proc
		var pingTurn, pongTurn bool
		rounds := iters / 2
		pong = k.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				p.Await(&pongTurn, "pong")
				pongTurn, pingTurn = false, true
				ping.Ready()
			}
		})
		ping = k.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				pongTurn = true
				pong.Ready()
				p.Await(&pingTurn, "ping")
				pingTurn = false
			}
		})
		if err := k.Run(); err != nil {
			r.fail(0, "sim handoff driver: %v", err)
		}
	})

	for _, name := range []string{"sim.procs2_penalty", "sim.mk_windows_per_kop", "sim.mk_subwindows_per_window",
		"sim.mk_extensions", "sim.mk_pipelined_replays", "sim.mk_replay_records_per_op", "sim.mk_barrier_share", "sim.mk_speedup"} {
		v[name] = 0
	}
	w := r.s.generate(r.s.rounds)
	if r.s.kernels == 1 {
		// What the single kernel's baton hand-offs cost when they may cross
		// OS threads: the same detection-off repetition at GOMAXPROCS 2 and 1.
		runtime.GOMAXPROCS(2)
		two := r.repetition(w, r.s.rounds, variant{kernels: 1}, r.tr)
		runtime.GOMAXPROCS(1)
		one := r.repetition(w, r.s.rounds, variant{kernels: 1}, r.tr)
		runtime.GOMAXPROCS(r.s.gomaxprocs)
		if one.wall > 0 {
			v["sim.procs2_penalty"] = two.wall.Seconds() / one.wall.Seconds()
		}
		return
	}
	ops := float64(r.s.ops(r.s.rounds))
	st := m.on[0].res.WindowStats
	if st == nil {
		r.fail(0, "multi-kernel run reported no window statistics")
		return
	}
	v["sim.mk_windows_per_kop"] = float64(st.Windows) / (ops / 1e3)
	v["sim.mk_subwindows_per_window"] = float64(st.SubWindows) / float64(max(st.Windows, 1))
	v["sim.mk_extensions"] = float64(st.Extensions)
	v["sim.mk_pipelined_replays"] = float64(st.PipelinedReplays)
	v["sim.mk_replay_records_per_op"] = float64(st.ReplayRecords) / ops
	if total := st.BarrierNs + st.WindowNs; total > 0 {
		v["sim.mk_barrier_share"] = float64(st.BarrierNs) / float64(total)
	}
	// The same program on one kernel and one core: the partitioned run must
	// reproduce its fingerprint exactly, and the ratio is what two shards on
	// two cores buy.
	runtime.GOMAXPROCS(1)
	serial := r.repetition(w, r.s.rounds, variant{detect: true, kernels: 1}, r.tr)
	runtime.GOMAXPROCS(r.s.gomaxprocs)
	if serial.res == nil {
		return
	}
	r.sameFingerprint("K=1 against K=2", serial, r.s.rounds, fingerprintOf(m.on[0].res))
	v["sim.mk_speedup"] = serial.wall.Seconds() / median(walls(m.on))
}

func (r *run) networkLayer(sh shape, v map[string]float64) {
	v["network.send_deliver_ns"] = r.perIter(400_000, func(iters int) {
		k := sim.NewKernel(sim.Config{Seed: 1, MaxEvents: 1 << 32})
		nw := network.New(k, 2, nil)
		left := iters
		bounce := func(m *network.Message) {
			if left > 0 {
				left--
				nw.Send(&network.Message{Src: m.Dst, Dst: m.Src, Kind: network.KindUser, Size: sh.msgBytes})
			}
		}
		nw.SetHandler(0, bounce)
		nw.SetHandler(1, bounce)
		k.Schedule(0, func() { bounce(&network.Message{Src: 1, Dst: 0}) })
		if err := k.Run(); err != nil {
			r.fail(0, "network driver: %v", err)
		}
	})
}

// rdmaRig is a bare NIC pair: process 0 on node 0 operating on an area
// homed on node 1. With a detector the system is sh.n nodes wide, so clocks
// have the workload's width; only two nodes ever talk.
func (r *run) rdmaRig(sh shape, det core.Detector, iters int, op func(p *sim.Proc, nic *rdma.NIC, area memory.Area, clock vclock.Masked, i int) error) {
	nodes := 2
	if det != nil {
		nodes = sh.n
	}
	k := sim.NewKernel(sim.Config{Seed: 1, MaxEvents: 1 << 32})
	nw := network.New(k, nodes, nil)
	space := memory.NewSpace(nodes, 64, 4096)
	area, err := space.Alloc("x", 1, sh.payloadWords)
	if err != nil {
		r.fail(0, "rdma driver: %v", err)
		return
	}
	var col *core.Collector
	if det != nil {
		col = &core.Collector{}
	}
	sys := rdma.NewSystem(nw, space, rdma.DefaultConfig(det, col))
	k.Spawn("P0", func(p *sim.Proc) {
		clock := vclock.NewMasked(nodes)
		if det != nil {
			clock = liveClock(sh)
		}
		for i := 0; i < iters; i++ {
			if err := op(p, sys.NIC(0), area, clock, i); err != nil {
				r.fail(0, "rdma driver op %d: %v", i, err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		r.fail(0, "rdma driver: %v", err)
	}
}

// absorb merges a reply clock into the process clock and returns the pooled
// buffer, as dsm.Proc does after every operation.
func absorb(nic *rdma.NIC, clock, reply vclock.Masked) {
	if !reply.IsNil() {
		clock.Merge(reply)
		nic.ReleaseClock(reply)
	}
}

func (r *run) rdmaLayer(sh shape, v map[string]float64) {
	data := make([]memory.Word, sh.payloadWords)
	put := func(p *sim.Proc, nic *rdma.NIC, area memory.Area, clock vclock.Masked, i int) error {
		clock.Tick(0)
		acc := core.Access{Proc: 0, Seq: uint64(i + 1), Kind: core.Write, Clock: clock.V, ClockNZ: clock.M}
		reply, err := nic.Put(p, area, 0, data, acc)
		absorb(nic, clock, reply)
		return err
	}
	get := func(p *sim.Proc, nic *rdma.NIC, area memory.Area, clock vclock.Masked, i int) error {
		clock.Tick(0)
		acc := core.Access{Proc: 0, Seq: uint64(i + 1), Kind: core.Read, Clock: clock.V, ClockNZ: clock.M}
		got, reply, err := nic.Get(p, area, 0, sh.payloadWords, acc)
		absorb(nic, clock, reply)
		sink += uint64(len(got))
		return err
	}
	lock := func(p *sim.Proc, nic *rdma.NIC, area memory.Area, clock vclock.Masked, i int) error {
		clock.Tick(0)
		rel, err := nic.LockArea(p, area, 0)
		if err != nil {
			return err
		}
		absorb(nic, clock, rel)
		clock.Tick(0)
		// The release clock rides in a pooled buffer the home adopts.
		nic.UnlockArea(area, 0, clock.CopyInto(nic.GrabClock()))
		return nil
	}
	const iters = 100_000
	v["rdma.put_rtt_ns"] = r.perIter(iters, func(n int) { r.rdmaRig(sh, nil, n, put) })
	v["rdma.get_rtt_ns"] = r.perIter(iters, func(n int) { r.rdmaRig(sh, nil, n, get) })
	v["rdma.lock_rtt_ns"] = r.perIter(iters, func(n int) { r.rdmaRig(sh, nil, n, lock) })
	v["rdma.put_rtt_detect_ns"] = r.perIter(iters, func(n int) { r.rdmaRig(sh, core.NewExactVWDetector(), n, put) })
}

func (r *run) coherenceLayer(sh shape, v map[string]float64) {
	v["coherence.cached_read_ns"] = 0
	space := memory.NewSpace(2, 64, 4096)
	area, err := space.Alloc("x", 0, sh.payloadWords)
	if err != nil {
		r.fail(0, "coherence driver: %v", err)
		return
	}
	st := coherence.NewWriteInvalidate().NewState(2, 1)
	st.InstallCopy(1, area, make([]memory.Word, sh.payloadWords), vclock.Masked{})
	v["coherence.cached_read_ns"] = r.perIter(1_000_000, func(iters int) {
		for i := 0; i < iters; i++ {
			data, _, ok := st.CachedRead(1, area, 0, sh.payloadWords)
			if ok {
				sink += uint64(len(data))
			}
		}
	})
}

func (r *run) memoryLayer(sh shape, v map[string]float64) {
	const areas = 4096
	names := make([]string, areas)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	v["memory.alloc_ns"] = r.perIter(areas, func(iters int) {
		space := memory.NewSpace(4, 64, 1<<16)
		for i := 0; i < iters; i++ {
			if _, err := space.Alloc(names[i], i%4, sh.payloadWords); err != nil {
				r.fail(0, "memory driver: %v", err)
				return
			}
		}
	})
	node := memory.NewSpace(1, 64, 4096).Node(0)
	src, dst := make([]memory.Word, sh.payloadWords), make([]memory.Word, sh.payloadWords)
	v["memory.rw_ns"] = r.perIter(2_000_000, func(iters int) {
		for i := 0; i < iters; i++ {
			src[0] = memory.Word(i)
			if node.WritePublic(0, src) != nil || node.ReadPublic(0, dst) != nil {
				r.fail(0, "memory driver: public access out of range")
				return
			}
		}
	})
	sink += dst[0]
}

func (r *run) dsmLayer(v map[string]float64) {
	var w workload.Workload
	v["workload.generate_us"] = r.perIter(1, func(int) { w = r.s.generate(r.s.rounds) }) / 1e3
	cfg := r.s.config(w, r.seed, variant{detect: true, kernels: r.s.kernels})
	v["dsm.new_cluster_us"] = r.perIter(1, func(int) {
		c, err := dsm.New(cfg)
		if err == nil {
			err = w.Setup(c)
		}
		if err != nil {
			r.fail(0, "dsm driver: %v", err)
		}
	}) / 1e3
}

// faultLayer is workload-independent: the armed-but-idle tax of the fault
// layer on uniform n=64, and what sustained loss costs in virtual time.
func (r *run) faultLayer(v map[string]float64) {
	const procs = 64
	rounds, hostileRounds := r.s.iters(2000), r.s.iters(1000)
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(r.s.gomaxprocs)
	uniform := workload.Random(workload.RandomSpec{
		Procs: procs, Areas: 2 * procs, AreaWords: 4,
		OpsPerProc: rounds, ReadPercent: 50, LockDiscipline: true,
	})
	dropAll := func(p float64) *fault.Schedule {
		return &fault.Schedule{Seed: 1, Drop: []fault.DropRule{{Kind: fault.AnyKind, Src: fault.AnyNode, Dst: fault.AnyNode, P: p}}}
	}
	timed := func(w workload.Workload, sched *fault.Schedule) (*dsm.Result, float64) {
		runtime.GC()
		start := time.Now()
		res, err := w.Run(dsm.Config{Seed: 1, RDMA: rdma.DefaultConfig(core.NewExactVWDetector(), nil), Faults: sched})
		if err != nil {
			r.fail(0, "fault driver: %v", err)
		}
		return res, time.Since(start).Seconds()
	}
	_, plain := timed(uniform, nil)
	_, armed := timed(uniform, dropAll(0))
	v["fault.armed_tax"] = armed / plain
	res, _ := timed(workload.HostileUniform(procs, 2*procs, 4, hostileRounds), dropAll(0.02))
	v["fault.hostile_vns_per_op"] = 0
	if res != nil {
		v["fault.hostile_vns_per_op"] = float64(res.Duration) / float64(procs*hostileRounds)
	}
}

// mcheckLayer is workload-independent: one reduced exploration of the
// largest pinned litmus (the smallest under the scaled-down table).
func (r *run) mcheckLayer(v map[string]float64) {
	v["mcheck.sched_per_s"], v["mcheck.runs"] = 0, 0
	name := "sb3"
	if r.s.small {
		name = "sb"
	}
	lit, err := mcheck.LitmusByName(name)
	if err != nil {
		r.fail(0, "mcheck driver: %v", err)
		return
	}
	start := time.Now()
	out, err := mcheck.Explore(mcheck.Config{Litmus: lit, Protocol: coherence.NewMESI(), MaxRuns: 1 << 21, POR: true, Workers: 1})
	if err != nil {
		r.fail(0, "mcheck driver: %v", err)
		return
	}
	v["mcheck.runs"] = float64(out.Runs)
	v["mcheck.sched_per_s"] = float64(out.Runs) / time.Since(start).Seconds()
}
