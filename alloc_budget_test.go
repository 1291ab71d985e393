package dsmrace

import (
	"fmt"
	"testing"

	"dsmrace/internal/core"
	"dsmrace/internal/dsm"
	"dsmrace/internal/rdma"
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
			short := testing.AllocsPerRun(1, func() { run(warm) })
			long := testing.AllocsPerRun(1, func() { run(warm + measured) })
			if per := (long - short) / (procs * measured); per > 0 {
				t.Errorf("%.3f allocations per contended acquisition (%v vs %v per run), want 0", per, long, short)
			}
		})
	}
}
