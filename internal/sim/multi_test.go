package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// toyNet is a minimal cross-node transport for exercising the multi-kernel:
// fixed latency, per-link FIFO, deliveries executed as fn events at the
// destination node's kernel — the same shape internal/network implements.
type toyNet struct {
	single  *Kernel
	mk      *MultiKernel
	shardOf []int
	lat     Time
	handler func(dst int, hop int)
	// defLat, when set, simulates a latency model that must defer every
	// cross-node send to the barrier (as jitter does): the delay is drawn
	// from the shared RNG at filing time.
	defLat bool
}

type toyEnv struct {
	sendAt   Time
	src, dst int
	hop      int
}

func (t *toyNet) kernelFor(node int) *Kernel {
	if t.mk != nil {
		return t.mk.Shard(t.shardOf[node])
	}
	return t.single
}

func (t *toyNet) delay() Time {
	if !t.defLat {
		return t.lat
	}
	// Draw order must match the serial kernel's send order bit-for-bit.
	return t.lat + Time(t.kernelRand().Intn(64))
}

func (t *toyNet) kernelRand() interface{ Intn(int) int } {
	if t.mk != nil {
		return t.mk.Rand()
	}
	return t.single.Rand()
}

// send transmits a hop from src to dst at the current time of src's kernel.
func (t *toyNet) send(src, dst, hop int) {
	k := t.kernelFor(src)
	sameShard := t.mk == nil || t.shardOf[src] == t.shardOf[dst]
	if t.mk != nil && k.winLog && (!sameShard || t.defLat) {
		k.LogEnvelope(&toyEnv{sendAt: k.Now(), src: src, dst: dst, hop: hop})
		return
	}
	d := t.delay()
	dstc, hopc := dst, hop
	t.kernelFor(src).At(k.Now()+d, func() { t.handler(dstc, hopc) })
}

func (t *toyNet) file(env any, key uint64) {
	e := env.(*toyEnv)
	d := t.delay()
	t.kernelFor(e.dst).PushKeyed(e.sendAt+d, key, func() { t.handler(e.dst, e.hop) })
}

// ringTrace runs a multi-token ring simulation — every node starts a token,
// tokens hop rounds times with occasional same-instant collisions at shared
// destinations — and returns the serially ordered trace plus run totals.
func ringTrace(t *testing.T, nodes, shards, rounds int, deferred bool) (trace []string, events uint64, end Time) {
	t.Helper()
	cfg := Config{Seed: 42}
	net := &toyNet{lat: 100, defLat: deferred}
	var k *Kernel
	var mk *MultiKernel
	if shards <= 1 {
		k = NewKernel(cfg)
		net.single = k
	} else {
		mk = NewMultiKernel(cfg, shards, net.lat)
		net.mk = mk
		net.shardOf = PartitionNodes(nodes, shards, PartitionBlocks, 1)
		mk.SetEnvelopeFiler(net.file)
	}
	log := func(node, hop int, at Time) func() {
		return func() { trace = append(trace, fmt.Sprintf("t=%d node=%d hop=%d", at, node, hop)) }
	}
	net.handler = func(dst, hop int) {
		kd := net.kernelFor(dst)
		kd.LogOrdered(log(dst, hop, kd.Now()))
		if hop < rounds*nodes {
			// Odd hops also fan a burst to node 0, forcing same-instant
			// cross-shard arrival collisions whose order must match the
			// serial kernel's push order exactly.
			if hop%3 == 1 && dst != 0 {
				net.send(dst, 0, hop)
			} else {
				net.send(dst, (dst+1)%nodes, hop+1)
			}
		}
	}
	for i := 0; i < nodes; i++ {
		i := i
		net.kernelFor(i).At(0, func() { net.send(i, (i+1)%nodes, 1) })
	}
	if mk != nil {
		if err := mk.Run(); err != nil {
			t.Fatalf("multi run: %v", err)
		}
		return trace, mk.Events(), mk.Now()
	}
	if err := k.Run(); err != nil {
		t.Fatalf("single run: %v", err)
	}
	return trace, k.Events(), k.Now()
}

// TestMultiKernelTraceEquivalence is the sim-level differential: the fully
// ordered event trace, the event count and the end time of a cross-shard
// message ring must be bit-identical between a standalone kernel and a
// multi-kernel at every shard count — with fixed latencies (immediate
// intra-shard filing) and with barrier-deferred randomised latencies (RNG
// replayed in serial order).
func TestMultiKernelTraceEquivalence(t *testing.T) {
	const nodes, rounds = 12, 6
	for _, deferred := range []bool{false, true} {
		name := "fixed"
		if deferred {
			name = "deferred-rng"
		}
		t.Run(name, func(t *testing.T) {
			want, wantEv, wantEnd := ringTrace(t, nodes, 1, rounds, deferred)
			if len(want) == 0 {
				t.Fatal("empty reference trace")
			}
			for _, shards := range []int{2, 3, 4, 8} {
				got, gotEv, gotEnd := ringTrace(t, nodes, shards, rounds, deferred)
				if gotEv != wantEv || gotEnd != wantEnd {
					t.Fatalf("shards=%d: events/end diverged: got %d/%d want %d/%d",
						shards, gotEv, gotEnd, wantEv, wantEnd)
				}
				if len(got) != len(want) {
					t.Fatalf("shards=%d: trace length %d, want %d", shards, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d: trace[%d] = %q, want %q", shards, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// blockRun drives a communication-local workload — rings of `group` nodes
// that never talk across ring boundaries, with the blocks partition keeping
// each ring on one shard — so every window is envelope-free and adaptive
// extension has maximal room to fire.
// It returns per-node hop counts, run totals, and the window stats.
func blockRun(t *testing.T, nodes, shards, group, rounds int, tune func(mk *MultiKernel)) (counts []int, events uint64, end Time, stats MultiKernelStats) {
	t.Helper()
	net := &toyNet{lat: 100}
	counts = make([]int, nodes)
	var k *Kernel
	var mk *MultiKernel
	if shards <= 1 {
		k = NewKernel(Config{Seed: 9})
		net.single = k
	} else {
		mk = NewMultiKernel(Config{Seed: 9}, shards, net.lat)
		net.mk = mk
		net.shardOf = PartitionNodes(nodes, shards, PartitionBlocks, group)
		mk.SetEnvelopeFiler(net.file)
		if tune != nil {
			tune(mk)
		}
	}
	next := func(id int) int { return (id/group)*group + (id%group+1)%group }
	net.handler = func(dst, hop int) {
		counts[dst]++
		if hop < rounds {
			net.send(dst, next(dst), hop+1)
		}
	}
	for i := 0; i < nodes; i++ {
		i := i
		net.kernelFor(i).At(0, func() { net.send(i, next(i), 1) })
	}
	if mk != nil {
		if err := mk.Run(); err != nil {
			t.Fatalf("multi run: %v", err)
		}
		return counts, mk.Events(), mk.Now(), mk.Stats()
	}
	if err := k.Run(); err != nil {
		t.Fatalf("single run: %v", err)
	}
	return counts, k.Events(), k.Now(), MultiKernelStats{}
}

// setProcs pins GOMAXPROCS for the rest of the test. It is the one input
// that selects the barrier regime (1: the coordinator drives the shards
// inline; more: runner goroutines behind the spin barrier), so tests that
// must cover both set it explicitly. Not for use under t.Parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestMultiKernelAdaptiveWindows proves adaptive extension fires on a
// communication-local workload and changes nothing observable: counts, event
// totals and end times stay bit-identical to the serial kernel under both
// barrier regimes, with the default extension cap and with extension
// disabled (extCap = 1, which provably restores one-lookahead windows:
// Extensions == 0 exactly then). GOMAXPROCS alone must select the regime,
// and the inline regime must start no runner goroutines.
func TestMultiKernelAdaptiveWindows(t *testing.T) {
	const nodes, group, rounds = 16, 4, 200
	wantCounts, wantEv, wantEnd, _ := blockRun(t, nodes, 1, group, rounds, nil)
	for _, row := range []struct {
		name          string
		procs, extCap int
	}{
		{"inline-default", 1, defaultExtensionCap},
		{"inline-no-extension", 1, 1},
		{"spin-default", 2, defaultExtensionCap},
		{"spin-no-extension", 2, 1},
	} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", row.name, shards), func(t *testing.T) {
				setProcs(t, row.procs)
				var before, early, late int
				var inline bool
				counts, ev, end, stats := blockRun(t, nodes, shards, group, rounds, func(mk *MultiKernel) {
					mk.extCap = row.extCap
					inline = mk.inline
					before = runtime.NumGoroutine()
					mk.Shard(0).At(1, func() { early = runtime.NumGoroutine() })
					mk.Shard(0).At(wantEnd, func() { late = runtime.NumGoroutine() })
				})
				// The two probe events are extra work on top of the reference run.
				if ev != wantEv+2 || end != wantEnd {
					t.Fatalf("events/end diverged: got %d/%d want %d/%d", ev, end, wantEv+2, wantEnd)
				}
				for i := range wantCounts {
					if counts[i] != wantCounts[i] {
						t.Fatalf("node %d count %d, want %d", i, counts[i], wantCounts[i])
					}
				}
				if stats.Windows == 0 || stats.SubWindows < stats.Windows {
					t.Fatalf("implausible stats: %+v", stats)
				}
				if (stats.Extensions == 0) != (row.extCap == 1) {
					t.Fatalf("Extensions = %d with extCap %d (stats %+v)", stats.Extensions, row.extCap, stats)
				}
				if stats.Extensions != stats.SubWindows-stats.Windows {
					t.Fatalf("Extensions (%d) != SubWindows-Windows (%+v)", stats.Extensions, stats)
				}
				if inline != (row.procs == 1) {
					t.Fatalf("GOMAXPROCS=%d selected inline=%v", row.procs, inline)
				}
				// Runners of earlier spin runs exit asynchronously, so the
				// count may fall during a run; without runners of its own
				// it must not rise.
				if inline && (early > before || late > before) {
					t.Fatalf("inline regime started goroutines: %d before Run, %d/%d during", before, early, late)
				}
			})
		}
	}
}

// TestMultiKernelProcsAcrossShards runs parked processes on every shard,
// exchanging through the toy net, and checks deadlock-free completion and
// bit-identical end state with the single kernel.
func TestMultiKernelProcsAcrossShards(t *testing.T) {
	const nodes, shards = 8, 4
	run := func(shards int) (Time, uint64, []int) {
		net := &toyNet{lat: 50}
		counts := make([]int, nodes)
		var mk *MultiKernel
		var k *Kernel
		if shards > 1 {
			mk = NewMultiKernel(Config{Seed: 7}, shards, net.lat)
			net.mk = mk
			net.shardOf = PartitionNodes(nodes, shards, PartitionRoundRobin, 0)
			mk.SetEnvelopeFiler(net.file)
		} else {
			k = NewKernel(Config{Seed: 7})
			net.single = k
		}
		inbox := make([]int, nodes)
		waiting := make([]*Proc, nodes)
		net.handler = func(dst, hop int) {
			inbox[dst]++
			if waiting[dst] != nil {
				waiting[dst].Ready()
			}
		}
		for i := 0; i < nodes; i++ {
			i := i
			net.kernelFor(i).Spawn(fmt.Sprintf("P%d", i), func(p *Proc) {
				for r := 0; r < 10; r++ {
					net.send(i, (i+1)%nodes, r)
					waiting[i] = p
					for inbox[i] <= r {
						p.Park("await token")
					}
					waiting[i] = nil
					counts[i]++
				}
			})
		}
		if mk != nil {
			if err := mk.Run(); err != nil {
				t.Fatalf("multi: %v", err)
			}
			return mk.Now(), mk.Events(), counts
		}
		if err := k.Run(); err != nil {
			t.Fatalf("single: %v", err)
		}
		return k.Now(), k.Events(), counts
	}
	wantEnd, wantEv, wantCounts := run(1)
	gotEnd, gotEv, gotCounts := run(shards)
	if gotEnd != wantEnd || gotEv != wantEv {
		t.Fatalf("end/events diverged: got %d/%d want %d/%d", gotEnd, gotEv, wantEnd, wantEv)
	}
	for i := range wantCounts {
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("node %d completed %d rounds, want %d", i, gotCounts[i], wantCounts[i])
		}
	}
}

// TestGoroutineReclaim: however a run ends with processes still parked —
// deadlock, event limit, Stop — no process coroutine and no shard runner
// outlives Run, and unwinding the processes leaves the deadlock report as it
// always read.
func TestGoroutineReclaim(t *testing.T) {
	setProcs(t, 2) // K=2 behind the spin barrier, runner goroutines included
	for _, shards := range []int{1, 2} {
		for _, end := range []string{"deadlock", "limit", "stop"} {
			t.Run(fmt.Sprintf("K=%d/%s", shards, end), func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg := Config{Seed: 1}
				if end == "limit" {
					cfg.MaxEvents = 50
				}
				var ks [2]*Kernel
				var run func() error
				if shards == 1 {
					k := NewKernel(cfg)
					ks, run = [2]*Kernel{k, k}, k.Run
				} else {
					mk := NewMultiKernel(cfg, 2, 100)
					ks, run = [2]*Kernel{mk.Shard(0), mk.Shard(1)}, mk.Run
				}
				unwound := 0
				for i, k := range ks {
					k.Spawn(fmt.Sprintf("P%d", i), func(p *Proc) {
						defer func() { unwound++ }()
						p.Sleep(10)
						p.Park("forever")
					})
				}
				switch end {
				case "limit":
					var tick func()
					tick = func() { ks[0].Schedule(1, tick) }
					ks[0].Schedule(0, tick)
				case "stop":
					ks[0].Schedule(20, ks[0].Stop)
				}
				err := run()
				switch end {
				case "deadlock":
					const want = "sim: deadlock at 0.010us; blocked: P0: forever; P1: forever"
					if err == nil || err.Error() != want {
						t.Fatalf("err = %v, want %q", err, want)
					}
				case "limit":
					var l *LimitError
					if !errors.As(err, &l) || l.What != "event" {
						t.Fatalf("err = %v, want event LimitError", err)
					}
				case "stop":
					if err != nil {
						t.Fatalf("stopped run: %v", err)
					}
				}
				if unwound != 2 {
					t.Fatalf("%d of 2 parked processes unwound by Run", unwound)
				}
				// Coroutines are gone when Run returns; shard runners see the
				// quit flag a moment later.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if g := runtime.NumGoroutine(); g > base {
					t.Fatalf("%d goroutines after Run, %d before", g, base)
				}
			})
		}
	}
}

// TestMultiKernelRandGuard pins the capability boundary: drawing the shared
// RNG from inside a parallel window must panic with a serial-only hint
// rather than silently produce an interleaving-dependent stream.
func TestMultiKernelRandGuard(t *testing.T) {
	mk := NewMultiKernel(Config{Seed: 1}, 2, 100)
	tripped := false
	mk.Shard(0).At(10, func() {
		defer func() {
			if r := recover(); r != nil {
				tripped = true
				panic(r) // re-raise: the run must still fail loudly
			}
		}()
		mk.Shard(0).Rand().Intn(4)
	})
	func() {
		defer func() { recover() }()
		mk.Run()
	}()
	if !tripped {
		t.Fatal("shared RNG draw inside a parallel window did not panic")
	}
}

// TestPartitionNodesTotal is the partition property test: every policy, for
// a grid of (k, n, group), must produce a total partition — each node in
// exactly one shard in range — with every shard non-empty when k <= n, and
// the blocks policy must keep whole affinity groups inside one shard
// whenever a shard's block is at least one group wide.
func TestPartitionNodesTotal(t *testing.T) {
	for _, policy := range []PartitionPolicy{PartitionRoundRobin, PartitionBlocks} {
		for _, n := range []int{1, 2, 7, 8, 64, 65, 512} {
			for _, k := range []int{1, 2, 3, 4, 8, 16} {
				for _, group := range []int{0, 1, 4, 8, 13} {
					shardOf := PartitionNodes(n, k, policy, group)
					if len(shardOf) != n {
						t.Fatalf("%v n=%d k=%d: %d assignments", policy, n, k, len(shardOf))
					}
					eff := k
					if eff > n {
						eff = n
					}
					seen := make([]int, eff)
					for node, s := range shardOf {
						if s < 0 || s >= eff {
							t.Fatalf("%v n=%d k=%d: node %d -> shard %d out of range", policy, n, k, node, s)
						}
						seen[s]++
					}
					for s, c := range seen {
						if c == 0 {
							t.Fatalf("%v n=%d k=%d group=%d: shard %d empty", policy, n, k, group, s)
						}
					}
					// Affinity: whenever every shard can hold at least one
					// whole group, no group may straddle a shard boundary.
					if policy == PartitionBlocks && group > 1 && eff*group <= n {
						for g := 0; g*group+group <= n; g++ {
							first := shardOf[g*group]
							for i := g * group; i < (g+1)*group; i++ {
								if shardOf[i] != first {
									t.Fatalf("blocks n=%d k=%d group=%d: group %d split across shards %d and %d",
										n, k, group, g, first, shardOf[i])
								}
							}
						}
					}
				}
			}
		}
	}
}
