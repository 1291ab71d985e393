package dsmrace

import (
	"errors"
	"fmt"
	"testing"

	"dsmrace/internal/core"
	"dsmrace/internal/dsm"
	"dsmrace/internal/fault"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/rdma"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// TestOnAccessAllocationBudget pins the zero-allocation contract of the
// detection hot path: once warm, a steady-state OnAccess step performs no
// allocation, whether it races or not: a report is built in scratch the
// state allocated on the area's first race. The absorb scratch buffer is
// threaded back in exactly as the NIC does.
func TestOnAccessAllocationBudget(t *testing.T) {
	// 16 is the historical debugging-scale size; 256 is the E_Scale regime —
	// the zero-allocation contract must hold at every measured cluster size.
	for _, n := range []int{16, 256} {
		n := n
		// Quiet stream: one writer whose node is the home — every access is
		// causally after the last, so no detector reports.
		t.Run(fmt.Sprintf("quiet/n=%d", n), func(t *testing.T) {
			for _, d := range benchDetectors() {
				d := d
				t.Run(d.Name(), func(t *testing.T) {
					st := d.NewAreaState(n)
					clk := vclock.New(n)
					var scratch vclock.Masked
					seq := uint64(0)
					step := func() {
						seq++
						clk.Tick(0)
						rep, absorbed := st.OnAccess(core.Access{
							Proc: 0, Seq: seq, Kind: core.Write, Clock: clk,
						}, 0, scratch)
						if rep != nil {
							t.Fatal("quiet stream raced")
						}
						if !absorbed.IsNil() {
							scratch = absorbed
						}
					}
					for i := 0; i < 32; i++ {
						step() // warm the state-owned buffers
					}
					if avg := testing.AllocsPerRun(100, step); avg > 0 {
						t.Errorf("steady-state quiet OnAccess allocates %.2f/op, want 0", avg)
					}
				})
			}
		})

		// Racing stream: rotating writers that never gossip — every access is
		// concurrent with the stored clock for the clock-based detectors, and
		// the report itself is reused state-owned storage.
		t.Run(fmt.Sprintf("racing/n=%d", n), func(t *testing.T) {
			for _, d := range benchDetectors() {
				d := d
				t.Run(d.Name(), func(t *testing.T) {
					st := d.NewAreaState(n)
					clocks := make([]vclock.VC, n)
					for i := range clocks {
						clocks[i] = vclock.New(n)
					}
					var scratch vclock.Masked
					seq, proc, raced := uint64(0), 0, 0
					step := func() {
						seq++
						proc = (proc + 1) % n
						clocks[proc].Tick(proc)
						rep, absorbed := st.OnAccess(core.Access{
							Proc: proc, Seq: seq, Kind: core.Write, Clock: clocks[proc],
						}, 0, scratch)
						if rep != nil {
							raced++
						}
						if !absorbed.IsNil() {
							scratch = absorbed
						}
					}
					for i := 0; i < 3*n; i++ {
						step()
					}
					warm := raced
					if avg := testing.AllocsPerRun(100, step); avg > 0 {
						t.Errorf("steady-state racing OnAccess allocates %.2f/op, want 0", avg)
					}
					// lockset reports an area once and off reports nothing; for
					// the rest, the measured steps must have been racing ones
					// (vw's home tick orders the home process's own writes).
					if name := d.Name(); name != "lockset" && name != "off" && raced-warm < 90 {
						t.Errorf("only %d of the ~100 measured steps raced", raced-warm)
					}
				})
			}
		})
	}
}

// minAllocs is the allocation count of one call of f, taken as the minimum
// over a few calls: Mallocs is process-wide and the runtime's own goroutines
// add a stray allocation to one run in twenty-five, but nothing ever
// subtracts one, so the minimum is the program's own deterministic count.
func minAllocs(f func()) float64 {
	m := testing.AllocsPerRun(1, f)
	for i := 0; i < 4; i++ {
		m = min(m, testing.AllocsPerRun(1, f))
	}
	return m
}

// TestContendedLockAllocationBudget pins the lock path's steady state: with
// every process queueing on one area lock, an acquire/release round trip —
// request, wait in the home's queue, grant, unlock — allocates nothing once
// the pools and the waiter ring have reached their high-water marks. Two
// whole runs that differ only in their iteration count must therefore
// allocate the same.
func TestContendedLockAllocationBudget(t *testing.T) {
	const procs, warm, measured = 8, 64, 256
	for _, det := range []string{"off", "vw-exact"} {
		t.Run(det, func(t *testing.T) {
			run := func(iters int) {
				d, err := NewDetector(det)
				if err != nil {
					t.Fatal(err)
				}
				c, err := dsm.New(dsm.Config{Procs: procs, Seed: 3, RDMA: rdma.DefaultConfig(d, nil)})
				if err != nil {
					t.Fatal(err)
				}
				c.MustAlloc("x", 0, 1)
				res, err := c.Run(func(p *dsm.Proc) error {
					for i := 0; i < iters; i++ {
						if err := p.Lock("x"); err != nil {
							return err
						}
						p.MustUnlock("x")
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if ferr := res.FirstError(); ferr != nil {
					t.Fatal(ferr)
				}
			}
			short := minAllocs(func() { run(warm) })
			long := minAllocs(func() { run(warm + measured) })
			if per := (long - short) / (procs * measured); per > 0 {
				t.Errorf("%.3f allocations per contended acquisition (%v vs %v per run), want 0", per, long, short)
			}
		})
	}
}

// TestOperationPathAllocationBudget pins what the whole operation path — the
// dsm runtime, both NIC sides, the coherence policy, the network and the
// kernel under them — allocates per round of a program once every pool has
// reached its high-water mark. Each budget is the *marginal* allocation
// count between a short and a long run of the same program, so cluster
// construction, pool warm-up and teardown cancel. Every record on the path
// is pooled and filled in place and every payload lives in a buffer its
// record keeps, so what remains is exactly the slices the API hands to the
// caller: one per Get.
func TestOperationPathAllocationBudget(t *testing.T) {
	const warm, measured = 256, 256
	// Area names are built once: a Sprintf per round would be the program's
	// allocation, not the path's.
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }
	var va, la, lb [4]string
	for i := range va {
		va[i], la[i], lb[i] = name("v", i), name("a", i), name("b", i)
	}
	cases := []struct {
		name       string
		procs      int
		invalidate bool
		setup      func(c *dsm.Cluster)
		round      func(p *dsm.Proc, i int) // one round of one process; must leave no race
		budget     float64                  // allocations per round, all processes together
		lockset    bool                     // race-free under lockset too (every access lock-protected or private)
	}{
		{name: "barrier/n=16", procs: 16,
			round: func(p *dsm.Proc, i int) { p.Barrier() }},
		{name: "barrier/n=256", procs: 256,
			round: func(p *dsm.Proc, i int) { p.Barrier() }},
		{name: "write-update/GetWord+Put+FetchAdd", procs: 4,
			setup: func(c *dsm.Cluster) {
				for i := range va {
					c.MustAlloc(va[i], (i+1)%4, 2)
				}
			},
			round: func(p *dsm.Proc, i int) {
				v := va[p.ID()] // homed on the next node: every op is remote
				p.MustPut(v, 0, memory.Word(i))
				p.MustGetWord(v, 0)
				p.MustFetchAdd(v, 1, 1)
			}},
		{name: "write-update/Get(8)", procs: 4, budget: 4,
			setup: func(c *dsm.Cluster) {
				for i := range va {
					c.MustAlloc(va[i], (i+1)%4, 8)
				}
			},
			round: func(p *dsm.Proc, i int) { p.MustGet(va[p.ID()], 0, 8) }},
		// P0 rewrites the area (one invalidation to P1's copy), P1 then misses
		// and fetches it again: one result slice per round.
		{name: "write-invalidate/fetch+invalidation", procs: 2, invalidate: true, budget: 1,
			setup: func(c *dsm.Cluster) { c.MustAlloc("x", 0, 8) },
			round: func(p *dsm.Proc, i int) {
				if p.ID() == 0 {
					p.MustPut("x", 0, memory.Word(i), memory.Word(i))
				}
				p.Barrier()
				if p.ID() == 1 {
					p.MustGet("x", 0, 8)
				}
				p.Barrier()
			}},
		{name: "Lock+Put+Unlock/two-locks-held", procs: 4, lockset: true,
			setup: func(c *dsm.Cluster) {
				for i := range la {
					c.MustAlloc(la[i], (i+1)%4, 1)
					c.MustAlloc(lb[i], (i+2)%4, 1)
				}
			},
			round: func(p *dsm.Proc, i int) {
				a, b := la[p.ID()], lb[p.ID()]
				p.MustLock(a)
				p.MustLock(b)
				p.MustPut(a, 0, memory.Word(i))
				p.MustUnlock(b)
				p.MustUnlock(a)
			}},
	}
	for _, tc := range cases {
		dets := []string{"off", "vw-exact"}
		if tc.lockset {
			dets = append(dets, "lockset")
		}
		for _, det := range dets {
			t.Run(tc.name+"/"+det, func(t *testing.T) {
				run := func(rounds int) {
					d, err := NewDetector(det)
					if err != nil {
						t.Fatal(err)
					}
					rc := rdma.DefaultConfig(d, nil)
					if tc.invalidate {
						rc.Coherence = mustCoherence("write-invalidate")
					}
					c, err := dsm.New(dsm.Config{Procs: tc.procs, Seed: 5, RDMA: rc})
					if err != nil {
						t.Fatal(err)
					}
					if tc.setup != nil {
						tc.setup(c)
					}
					res, err := c.Run(func(p *dsm.Proc) error {
						for i := 0; i < rounds; i++ {
							tc.round(p, i)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if ferr := res.FirstError(); ferr != nil {
						t.Fatal(ferr)
					}
					if res.RaceCount != 0 {
						t.Fatalf("%d races: a racing round measures report construction, not the path", res.RaceCount)
					}
				}
				short := minAllocs(func() { run(warm) })
				long := minAllocs(func() { run(warm + measured) })
				// Two clusters built alike still differ by an allocation or two
				// (their maps draw their own hash seeds), so the marginal count
				// is exact only to within a handful per run, whatever the
				// cluster size: a leak of one per round, even at the
				// coordinator alone, is 256.
				const slack = 8
				if extra := long - short - tc.budget*measured; extra > slack {
					t.Errorf("%.2f allocations per round (%v vs %v per run), budget %v", (long-short)/measured, long, short, tc.budget)
				}
				t.Logf("%.3f allocations per round", (long-short)/measured)
			})
		}
	}
}

// TestPoolBalanceAfterEveryEnding audits every pool shard — requests,
// replies and their payload buffers, operations, barrier records, merged
// barrier clocks — after each way a run can end, at K=1 and K=2: however
// roughly it stopped, every shard must own nothing.
func TestPoolBalanceAfterEveryEnding(t *testing.T) {
	const procs, rounds = 8, 6
	setup := func(c *dsm.Cluster) {
		for i := 0; i < procs; i++ {
			c.MustAlloc(fmt.Sprintf("v%d", i), i, 8)
		}
	}
	// mix is a barrier-phased round over every pooled path: remote puts,
	// whole-area gets (fetches under write-invalidate), atomics, locks.
	mix := func(p *dsm.Proc, i int) error {
		next := fmt.Sprintf("v%d", (p.ID()+1)%procs)
		if err := p.Put(next, 0, memory.Word(i), memory.Word(p.ID())); err != nil {
			return err
		}
		p.Barrier()
		if _, err := p.Get(fmt.Sprintf("v%d", (p.ID()+2)%procs), 0, 8); err != nil {
			return err
		}
		p.Barrier()
		if err := p.Lock(next); err != nil {
			return err
		}
		if _, err := p.FetchAdd(next, 7, 1); err != nil {
			return err
		}
		return p.Unlock(next)
	}
	cases := []struct {
		name       string
		invalidate bool
		faults     *fault.Schedule
		maxEvents  uint64
		prog       func(p *dsm.Proc) error
		wantErr    func(error) bool
	}{
		{name: "clean", invalidate: true,
			prog: func(p *dsm.Proc) error {
				for i := 0; i < rounds; i++ {
					if err := mix(p, i); err != nil {
						return err
					}
				}
				return nil
			}},
		// The last process skips the final barrier. Arrivals are merged and
		// recycled as they come in, and the coordinator hands the open epoch's
		// clock back when the run ends.
		{name: "deadlock", invalidate: true,
			prog: func(p *dsm.Proc) error {
				if err := mix(p, 0); err != nil {
					return err
				}
				if p.ID() != procs-1 {
					p.Barrier()
				}
				return nil
			},
			wantErr: func(err error) bool { var d *sim.DeadlockError; return errors.As(err, &d) }},
		// Every operation completes, then the processes idle until the event
		// cap trips: a capped run must settle like a finished one.
		{name: "max-events", invalidate: true, maxEvents: 20000,
			prog: func(p *dsm.Proc) error {
				for i := 0; i < rounds; i++ {
					if err := mix(p, i); err != nil {
						return err
					}
				}
				for {
					p.Sleep(sim.Microsecond)
				}
			},
			wantErr: func(err error) bool { var l *sim.LimitError; return errors.As(err, &l) }},
		// A third of the get replies — each holding a payload buffer — are
		// lost in transit; the drop hook keeps the buffer with its record.
		{name: "dropped-replies",
			faults: &fault.Schedule{Seed: 3, RetryBudget: 12,
				Drop: []fault.DropRule{{Kind: network.KindGetReply, Src: fault.AnyNode, Dst: fault.AnyNode, P: 0.3}}},
			prog: func(p *dsm.Proc) error {
				for i := 0; i < rounds; i++ {
					if err := mix(p, i); err != nil {
						return err
					}
				}
				return nil
			}},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K=%d", tc.name, k), func(t *testing.T) {
				rc := rdma.DefaultConfig(core.NewExactVWDetector(), nil)
				if tc.invalidate {
					rc.Coherence = mustCoherence("write-invalidate")
				}
				c, err := dsm.New(dsm.Config{Procs: procs, Seed: 9, RDMA: rc, Kernels: k,
					Faults: tc.faults, MaxEvents: tc.maxEvents})
				if err != nil {
					t.Fatal(err)
				}
				setup(c)
				res, err := c.Run(tc.prog)
				if tc.wantErr == nil {
					if err == nil {
						err = res.FirstError()
					}
					if err != nil {
						t.Fatal(err)
					}
				} else if !tc.wantErr(err) {
					t.Fatalf("run ended with %v", err)
				}
				if res.Kernels != k {
					t.Fatalf("ran on %d kernels (%s), want %d", res.Kernels, res.KernelNote, k)
				}
				sys := c.System()
				for s := 0; s < sys.PoolShards(); s++ {
					if got := sys.PoolBalanceShard(s); got != (rdma.PoolBalance{}) {
						t.Errorf("pool shard %d holds %+v, want all zero", s, got)
					}
				}
				if tc.faults != nil && c.Network().TotalDropped() == 0 {
					t.Error("the schedule dropped nothing")
				}
			})
		}
	}
}
