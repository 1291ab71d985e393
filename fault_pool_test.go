package dsmrace

import (
	"fmt"
	"testing"

	"dsmrace/internal/fault"
	"dsmrace/internal/rdma"
	"dsmrace/internal/sim"
	"dsmrace/internal/workload"
)

// This file is the pool-ownership stress suite for the fault layer: every
// scenario that interrupts a pooled struct's lifecycle mid-flight — a crash
// while a lock is held, a crash while fetches are outstanding, sustained
// probabilistic loss — must still reclaim every req, resp, op and clock into
// the shard pool that owns it, at one kernel and at four.

// runFaultyAudited runs the workload under the schedule at K=1 and, under
// each barrier regime, at K=4; it audits every pool shard after each run
// and checks every variant agrees with K=1 bit-for-bit.
func runFaultyAudited(t *testing.T, w workload.Workload, sched *fault.Schedule,
	seed int64, mut func(*rdma.Config)) {
	t.Helper()
	want, c := runFaulty(t, w, sched, 1, seed, mut)
	auditPools(t, c, w.Name+"/k=1")
	eachBarrierRegime(t, func(t *testing.T) {
		got, c := runFaulty(t, w, sched, 4, seed, mut)
		auditPools(t, c, w.Name+"/k=4")
		g, wnt := got, want
		g.kernels, wnt.kernels = 0, 0
		if g != wnt {
			t.Fatalf("k=4 diverged from k=1:\n got  %+v\n want %+v", g, wnt)
		}
	})
}

// TestFaultPoolCrashMidLockTenure crashes a node while the migratory lock is
// live: once the lock's home (node 0 — its grant tables, waiter queues and
// queued payloads die mid-protocol) and once a client caught holding or
// awaiting the lock. Both sweeps must complete every interrupted lifecycle:
// queued home-side reqs released, tenures expired, joins drained — pools
// balanced on every shard.
func TestFaultPoolCrashMidLockTenure(t *testing.T) {
	w := workload.HostileMigratory(6, 8, 4)
	for name, node := range map[string]int{"crash-lock-home": 0, "crash-lock-client": 3} {
		node := node
		t.Run(name, func(t *testing.T) {
			sched := &fault.Schedule{
				Seed:   21,
				Events: []fault.Event{{At: 50 * sim.Microsecond, Op: fault.Crash, Node: node}},
			}
			runFaultyAudited(t, w, sched, 17, nil)
		})
	}
}

// TestFaultPoolCrashMidFetch runs write-invalidate — the protocol whose
// fetches and invalidation rounds keep the most pooled state in flight — and
// crashes a home while the uniform workload hammers it. Outstanding fetch
// replies are dropped at the dead source, invalidation rounds are force-
// drained, and the sweep's orphan absorption must leave zero leaks.
func TestFaultPoolCrashMidFetch(t *testing.T) {
	w := workload.HostileUniform(8, 16, 4, 24)
	sched := &fault.Schedule{
		Seed: 23,
		Events: []fault.Event{
			{At: 40 * sim.Microsecond, Op: fault.Crash, Node: 1},
			{At: 200 * sim.Microsecond, Op: fault.Restart, Node: 1},
		},
	}
	runFaultyAudited(t, w, sched, 19, func(c *rdma.Config) {
		c.Coherence = mustCoherence("write-invalidate")
	})
}

// TestFaultPoolDropSweep sweeps the background loss rate from light to
// brutal. Every dropped message routes its pooled payload through the drop
// hooks (reclaim, NACK bounce, or loss notification) — whatever the rate,
// the pools balance and the run replays identically at K=1 and K=4.
func TestFaultPoolDropSweep(t *testing.T) {
	w := workload.HostileUniform(10, 20, 4, 24)
	for _, p := range []float64{0.01, 0.05, 0.2} {
		p := p
		t.Run(fmt.Sprintf("p=%g", p), func(t *testing.T) {
			sched := &fault.Schedule{
				Seed: 29,
				Drop: []fault.DropRule{{Kind: fault.AnyKind, Src: fault.AnyNode, Dst: fault.AnyNode, P: p}},
			}
			runFaultyAudited(t, w, sched, 23, nil)
		})
	}
}
