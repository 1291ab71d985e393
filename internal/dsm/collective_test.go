package dsm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/sim"
	"dsmrace/internal/trace"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cell%d", i)
	}
	return out
}

func allocCells(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for i, name := range names(n) {
		c.MustAlloc(name, i, 1)
	}
}

func TestOneSidedBroadcastGatherScatter(t *testing.T) {
	const n = 4
	c := newCluster(t, n, nil, nil)
	allocCells(t, c, n)
	progs := make([]Program, n)
	progs[2] = func(p *Proc) error {
		if err := p.BroadcastOneSided(names(n), 7); err != nil {
			return err
		}
		got, err := p.GatherOneSided(names(n))
		if err != nil {
			return err
		}
		for i, v := range got {
			if v != 7 {
				return fmt.Errorf("cell %d = %d after broadcast", i, v)
			}
		}
		if err := p.ScatterOneSided(names(n), []memory.Word{10, 11, 12, 13}); err != nil {
			return err
		}
		got, err = p.GatherOneSided(names(n))
		if err != nil {
			return err
		}
		for i, v := range got {
			if v != memory.Word(10+i) {
				return fmt.Errorf("cell %d = %d after scatter", i, v)
			}
		}
		return nil
	}
	res, err := c.RunEach(progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	// One-sidedness: only P2 ran; everyone else's memory was still touched.
	for i := 0; i < n; i++ {
		if res.Memory[i][0] != memory.Word(10+i) {
			t.Fatalf("node %d final = %d", i, res.Memory[i][0])
		}
	}
}

func TestScatterArityError(t *testing.T) {
	c := newCluster(t, 2, nil, nil)
	allocCells(t, c, 2)
	res, err := c.RunEach([]Program{
		func(p *Proc) error { return p.ScatterOneSided(names(2), []memory.Word{1}) },
		nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors[0] == nil || !strings.Contains(res.Errors[0].Error(), "arity") {
		t.Fatalf("err = %v", res.Errors[0])
	}
}

func TestReduceCollectiveScratchTooSmall(t *testing.T) {
	c := newCluster(t, 3, nil, nil)
	c.MustAlloc("scratch", 0, 2) // needs 4
	res, err := c.Run(func(p *Proc) error {
		_, err := p.ReduceCollective("scratch", 1, OpSum, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError() == nil || !strings.Contains(res.FirstError().Error(), "needs") {
		t.Fatalf("err = %v", res.FirstError())
	}
}

func TestReduceOneSidedErrors(t *testing.T) {
	c := newCluster(t, 2, nil, nil)
	c.MustAlloc("a", 0, 1)
	res, err := c.RunEach([]Program{
		func(p *Proc) error {
			if _, err := p.ReduceOneSided(nil, OpSum); err == nil {
				return errors.New("empty reduce should fail")
			}
			if _, err := p.ReduceOneSided([]string{"missing"}, OpSum); err == nil {
				return errors.New("unknown area should fail")
			}
			return nil
		},
		nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceMaxMinProd(t *testing.T) {
	const n = 3
	c := newCluster(t, n, nil, nil)
	allocCells(t, c, n)
	progs := make([]Program, n)
	progs[0] = func(p *Proc) error {
		if err := p.ScatterOneSided(names(n), []memory.Word{4, 9, 2}); err != nil {
			return err
		}
		for _, tc := range []struct {
			op   ReduceOp
			want memory.Word
		}{
			{OpMax, 9}, {OpMin, 2}, {OpSum, 15}, {OpProd, 72},
		} {
			got, err := p.ReduceOneSided(names(n), tc.op)
			if err != nil {
				return err
			}
			if got != tc.want {
				return fmt.Errorf("%v = %d, want %d", tc.op, got, tc.want)
			}
		}
		return nil
	}
	res, err := c.RunEach(progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ReduceOp(99).Apply(1, 2)
}

func TestLockDeadlockSurfacesAsError(t *testing.T) {
	// Two processes acquiring two locks in opposite orders with a barrier
	// forcing simultaneity: the classic deadlock. The kernel must report it
	// rather than hang.
	c := newCluster(t, 2, nil, nil)
	c.MustAlloc("a", 0, 1)
	c.MustAlloc("b", 1, 1)
	_, err := c.Run(func(p *Proc) error {
		first, second := "a", "b"
		if p.ID() == 1 {
			first, second = "b", "a"
		}
		if err := p.Lock(first); err != nil {
			return err
		}
		p.Barrier() // both hold their first lock now
		if err := p.Lock(second); err != nil {
			return err
		}
		p.MustUnlock(second)
		p.MustUnlock(first)
		return nil
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
}

// TestBarrierDeadlockNamesEpoch: the barrier parks under a static label and
// an integer epoch; a run stuck in a barrier must still report which one.
func TestBarrierDeadlockNamesEpoch(t *testing.T) {
	c := newCluster(t, 2, nil, nil)
	_, err := c.Run(func(p *Proc) error {
		p.Barrier()
		p.Barrier()
		if p.ID() == 0 {
			p.Barrier() // P1 never enters epoch 3
		}
		return nil
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "P0: barrier 3" {
		t.Fatalf("blocked = %v, want [P0: barrier 3]", dl.Blocked)
	}
}

func TestManyBarrierEpochs(t *testing.T) {
	const n, epochs = 3, 25
	c := newCluster(t, n, core.NewExactVWDetector(), nil)
	c.MustAlloc("x", 0, 1)
	res, err := c.Run(func(p *Proc) error {
		for e := 0; e < epochs; e++ {
			if p.ID() == e%p.N() {
				if err := p.Put("x", 0, memory.Word(e)); err != nil {
					return err
				}
			}
			p.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("rotating writer with barriers raced: %v", res.Races[:1])
	}
	if res.Memory[0][0] != epochs-1 {
		t.Fatalf("final = %d", res.Memory[0][0])
	}
}

func TestTraceRecordsAllEventKinds(t *testing.T) {
	c := newCluster(t, 2, core.NewExactVWDetector(), func(cfg *Config) { cfg.Trace = true })
	c.MustAlloc("x", 0, 1)
	res, err := c.Run(func(p *Proc) error {
		p.MustLock("x")
		p.MustPut("x", 0, 1)
		if _, err := p.GetWord("x", 0); err != nil {
			return err
		}
		p.MustUnlock("x")
		p.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.EventKind]int{}
	for _, e := range res.Trace.Events {
		kinds[e.Kind]++
	}
	if kinds[trace.EvPut] != 2 || kinds[trace.EvGet] != 2 {
		t.Fatalf("access events: %v", kinds)
	}
	if kinds[trace.EvLockAcq] != 2 || kinds[trace.EvLockRel] != 2 {
		t.Fatalf("lock events: %v", kinds)
	}
	if kinds[trace.EvBarrier] != 2 {
		t.Fatalf("barrier events: %v", kinds)
	}
}

func TestCASSwappedFlag(t *testing.T) {
	c := newCluster(t, 1, nil, nil)
	c.MustAlloc("x", 0, 1)
	res, err := c.Run(func(p *Proc) error {
		old, swapped, err := p.CompareAndSwap("x", 0, 0, 5)
		if err != nil || !swapped || old != 0 {
			return fmt.Errorf("first cas: %d %v %v", old, swapped, err)
		}
		old, swapped, err = p.CompareAndSwap("x", 0, 0, 9)
		if err != nil || swapped || old != 5 {
			return fmt.Errorf("second cas: %d %v %v", old, swapped, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.Memory[0][0] != 5 {
		t.Fatalf("final = %d", res.Memory[0][0])
	}
}

func TestLocalMemoryBounds(t *testing.T) {
	c, err := New(Config{Procs: 1, Seed: 1, PrivateWords: 4, PublicWords: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(func(p *Proc) error {
		if err := p.LocalWrite(3, 1, 2); err == nil {
			return errors.New("out-of-bounds local write must fail")
		}
		if _, err := p.LocalRead(4, 1); err == nil {
			return errors.New("out-of-bounds local read must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestProcClockAndSeqAdvance(t *testing.T) {
	c := newCluster(t, 2, core.NewExactVWDetector(), nil)
	c.MustAlloc("x", 0, 1)
	res, err := c.RunEach([]Program{
		func(p *Proc) error {
			before := p.Clock()
			if err := p.Put("x", 0, 1); err != nil {
				return err
			}
			after := p.Clock()
			if after[0] <= before[0] {
				return fmt.Errorf("clock did not advance: %v -> %v", before, after)
			}
			if p.Seq() != 1 {
				return fmt.Errorf("seq = %d", p.Seq())
			}
			// Returned clock must be a copy.
			after.Tick(0)
			if p.Clock()[0] == after[0] {
				return errors.New("Clock() leaked internal state")
			}
			return nil
		},
		nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownAreaErrorsEverywhere(t *testing.T) {
	c := newCluster(t, 1, nil, nil)
	res, err := c.Run(func(p *Proc) error {
		if err := p.Put("ghost", 0, 1); err == nil {
			return errors.New("put")
		}
		if _, err := p.Get("ghost", 0, 1); err == nil {
			return errors.New("get")
		}
		if _, err := p.FetchAdd("ghost", 0, 1); err == nil {
			return errors.New("fetchadd")
		}
		if _, _, err := p.CompareAndSwap("ghost", 0, 0, 1); err == nil {
			return errors.New("cas")
		}
		if err := p.Lock("ghost"); err == nil {
			return errors.New("lock")
		}
		if err := p.Unlock("ghost"); err == nil {
			return errors.New("unlock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestCutLinkSurfacesAsDeadlock(t *testing.T) {
	// The model assumes reliable links (§III); losing one shows up as the
	// initiator parked forever on its completion, which the kernel reports.
	c := newCluster(t, 2, nil, nil)
	c.MustAlloc("x", 1, 1)
	progs := []Program{
		func(p *Proc) error {
			p.c.Network().CutLink(0, 1)
			return p.Put("x", 0, 1)
		},
		nil,
	}
	_, err := c.RunEach(progs)
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if !strings.Contains(dl.Error(), "put") {
		t.Fatalf("deadlock report should name the stuck operation: %v", dl)
	}
}

func TestLinkRestoreAllowsProgress(t *testing.T) {
	c := newCluster(t, 2, nil, nil)
	c.MustAlloc("x", 1, 1)
	progs := []Program{
		func(p *Proc) error {
			nw := p.c.Network()
			nw.CutLink(0, 1)
			nw.RestoreLink(0, 1)
			return p.Put("x", 0, 7)
		},
		nil,
	}
	res, err := c.RunEach(progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.Memory[1][0] != 7 {
		t.Fatalf("value = %d", res.Memory[1][0])
	}
}
