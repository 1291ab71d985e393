package dsm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dsmrace/internal/baseline"
	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/rdma"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

func newCluster(t *testing.T, procs int, det core.Detector, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Procs: procs,
		Seed:  1,
		RDMA:  rdma.DefaultConfig(det, nil),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Procs: 0}); err == nil {
		t.Fatal("zero procs must fail")
	}
	c := newCluster(t, 2, nil, nil)
	if _, err := c.RunEach([]Program{nil}); err == nil {
		t.Fatal("wrong program count must fail")
	}
}

func TestSPMDBarrierPhasedExchangeIsRaceFree(t *testing.T) {
	// Each process publishes into its own slot *area*, barrier, then reads
	// its neighbour's slot: classic halo-style phase structure, zero races.
	// (Clocks are per area — §V-A — so each slot must be its own area for
	// the concurrent publishes to be independent.)
	const n = 4
	c := newCluster(t, n, core.NewVWDetector(), nil)
	for i := 0; i < n; i++ {
		c.MustAlloc(fmt.Sprintf("slot%d", i), i, 1)
	}
	res, err := c.Run(func(p *Proc) error {
		if err := p.Put(fmt.Sprintf("slot%d", p.ID()), 0, memory.Word(100+p.ID())); err != nil {
			return err
		}
		p.Barrier()
		nb := (p.ID() + 1) % p.N()
		v, err := p.GetWord(fmt.Sprintf("slot%d", nb), 0)
		if err != nil {
			return err
		}
		if want := memory.Word(100 + nb); v != want {
			return fmt.Errorf("P%d read %d, want %d", p.ID(), v, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("race-free program reported %d races: %v", res.RaceCount, res.Races)
	}
	for i := 0; i < n; i++ {
		if res.Memory[i][0] != memory.Word(100+i) {
			t.Fatalf("final memory at node %d: %v", i, res.Memory[i][0])
		}
	}
}

func TestUnsynchronisedWritesRace(t *testing.T) {
	c := newCluster(t, 2, core.NewVWDetector(), nil)
	c.MustAlloc("x", 0, 1)
	res, err := c.Run(func(p *Proc) error {
		return p.Put("x", 0, memory.Word(p.ID()))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount == 0 {
		t.Fatal("concurrent writes must be reported")
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	// Same accesses as above but separated by a barrier: no race.
	c := newCluster(t, 2, core.NewVWDetector(), nil)
	c.MustAlloc("x", 0, 1)
	res, err := c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			if err := p.Put("x", 0, 1); err != nil {
				return err
			}
		}
		p.Barrier()
		if p.ID() == 1 {
			return p.Put("x", 0, 2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("barrier-ordered writes reported %d races: %v", res.RaceCount, res.Races)
	}
	if res.Memory[0][0] != 2 {
		t.Fatalf("final x = %d, want 2", res.Memory[0][0])
	}
}

func TestLockProtectedIncrementsAreRaceFreeAndCorrect(t *testing.T) {
	const n, iters = 3, 5
	c := newCluster(t, n, core.NewVWDetector(), nil)
	c.MustAlloc("ctr", 0, 1)
	res, err := c.Run(func(p *Proc) error {
		for i := 0; i < iters; i++ {
			if err := p.Lock("ctr"); err != nil {
				return err
			}
			v, err := p.GetWord("ctr", 0)
			if err != nil {
				return err
			}
			if err := p.Put("ctr", 0, v+1); err != nil {
				return err
			}
			if err := p.Unlock("ctr"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("lock-disciplined increments reported %d races: %v", res.RaceCount, res.Races)
	}
	if got := res.Memory[0][0]; got != n*iters {
		t.Fatalf("counter = %d, want %d (mutual exclusion broken)", got, n*iters)
	}
}

func TestUnlockWithoutLockFails(t *testing.T) {
	c := newCluster(t, 1, nil, nil)
	c.MustAlloc("x", 0, 1)
	res, err := c.Run(func(p *Proc) error { return p.Unlock("x") })
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError() == nil {
		t.Fatal("unlock without lock must error")
	}
}

func TestBenignMasterWorkerSignalsButCompletes(t *testing.T) {
	// §IV-D: master-worker result delivery races on purpose; the detector
	// must signal and the program must still complete correctly (E-T5).
	const n = 4
	c := newCluster(t, n, core.NewVWDetector(), nil)
	c.MustAlloc("results", 0, 1) // all workers add into one cell
	res, err := c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			p.Barrier() // wait for workers
			v, err := p.GetWord("results", 0)
			if err != nil {
				return err
			}
			if v != 1+2+3 {
				return fmt.Errorf("master read %d, want 6", v)
			}
			return nil
		}
		if _, err := p.FetchAdd("results", 0, memory.Word(p.ID())); err != nil {
			return err
		}
		p.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.RaceCount == 0 {
		t.Fatal("worker result race should be signalled")
	}
}

func TestDetectionOffReportsNothing(t *testing.T) {
	c := newCluster(t, 2, nil, nil)
	c.MustAlloc("x", 0, 1)
	res, err := c.Run(func(p *Proc) error { return p.Put("x", 0, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 || len(res.Races) != 0 {
		t.Fatal("no detector, no reports")
	}
	if res.StorageBytes != 0 {
		t.Fatalf("no detector, no clock storage: %d", res.StorageBytes)
	}
}

func TestPrivateMemoryIsolation(t *testing.T) {
	c := newCluster(t, 2, nil, nil)
	res, err := c.Run(func(p *Proc) error {
		if err := p.LocalWrite(0, memory.Word(p.ID()+7)); err != nil {
			return err
		}
		v, err := p.LocalRead(0, 1)
		if err != nil {
			return err
		}
		if v[0] != memory.Word(p.ID()+7) {
			return fmt.Errorf("private readback: %v", v)
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

func TestNilProgramNodeStillServesMemory(t *testing.T) {
	c := newCluster(t, 3, nil, nil)
	c.MustAlloc("x", 2, 4) // homed on the process-less node
	progs := []Program{
		func(p *Proc) error {
			if err := p.Put("x", 0, 11, 22); err != nil {
				return err
			}
			v, err := p.Get("x", 0, 2)
			if err != nil {
				return err
			}
			if v[0] != 11 || v[1] != 22 {
				return fmt.Errorf("got %v", v)
			}
			return nil
		},
		nil,
		nil,
	}
	res, err := c.RunEach(progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	c := newCluster(t, 1, nil, nil)
	if _, err := c.Run(func(p *Proc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(func(p *Proc) error { return nil }); err == nil {
		t.Fatal("second Run must fail")
	}
}

func TestMustVariantsPanicBecomesRunError(t *testing.T) {
	c := newCluster(t, 1, nil, nil)
	_, err := c.Run(func(p *Proc) error {
		p.MustPut("nonexistent", 0, 1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "unknown area") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func(seed int64) (sim.Time, int, uint64) {
		c := newCluster(t, 4, core.NewVWDetector(), func(cfg *Config) { cfg.Seed = seed })
		c.MustAlloc("x", 0, 8)
		res, err := c.Run(func(p *Proc) error {
			for i := 0; i < 10; i++ {
				if err := p.Put("x", p.Rand().Intn(8), memory.Word(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration, res.RaceCount, res.NetStats.TotalMsgs
	}
	d1, r1, m1 := run(42)
	d2, r2, m2 := run(42)
	if d1 != d2 || r1 != r2 || m1 != m2 {
		t.Fatalf("same seed diverged: (%v,%d,%d) vs (%v,%d,%d)", d1, r1, m1, d2, r2, m2)
	}
}

func TestReduceOneSidedMatchesCollective(t *testing.T) {
	const n = 4
	// One-sided: only P0 acts, nobody else participates (§V-B).
	c := newCluster(t, n, nil, nil)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("part%d", i)
		c.MustAlloc(names[i], i, 2)
	}
	progs := make([]Program, n)
	progs[0] = func(p *Proc) error {
		// The parts were pre-initialised below; reduce without any helper.
		got, err := p.ReduceOneSided(names, OpSum)
		if err != nil {
			return err
		}
		// Each node i holds {i, i+8}: sum = (0+1+2+3) + (8+9+10+11) = 44.
		if got != 44 {
			return fmt.Errorf("one-sided sum = %d, want 44", got)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		c.Space().Node(i).WritePublic(0, []memory.Word{memory.Word(i), memory.Word(i + 8)})
	}
	res, err := c.RunEach(progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}

	// Collective: everyone participates, same mathematical result.
	c2 := newCluster(t, n, nil, nil)
	c2.MustAlloc("scratch", 0, n+1)
	res2, err := c2.Run(func(p *Proc) error {
		got, err := p.ReduceCollective("scratch", memory.Word(p.ID()*10), OpSum, 0)
		if err != nil {
			return err
		}
		if got != 0+10+20+30 {
			return fmt.Errorf("collective sum = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		op   ReduceOp
		want memory.Word
	}{
		{OpSum, 6}, {OpMax, 3}, {OpMin, 1}, {OpProd, 6},
	}
	for _, tc := range cases {
		acc := memory.Word(1)
		for _, v := range []memory.Word{2, 3} {
			acc = tc.op.Apply(acc, v)
		}
		if acc != tc.want {
			t.Errorf("%v fold = %d, want %d", tc.op, acc, tc.want)
		}
		if tc.op.String() == "" {
			t.Errorf("%d has no name", tc.op)
		}
	}
}

func TestBroadcast(t *testing.T) {
	const n = 3
	c := newCluster(t, n, core.NewVWDetector(), nil)
	c.MustAlloc("bcast", 1, 1)
	res, err := c.Run(func(p *Proc) error {
		v, err := p.Broadcast("bcast", 99, 1)
		if err != nil {
			return err
		}
		if v != 99 {
			return fmt.Errorf("P%d got %d", p.ID(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("broadcast raced: %v", res.Races)
	}
}

func TestOneSidedReduceMessageProfile(t *testing.T) {
	// E-T7's shape: one-sided reduce is 2 messages per remote part (get
	// req/reply) and zero involvement of other processes.
	const n = 4
	c := newCluster(t, n, nil, nil)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("part%d", i)
		c.MustAlloc(names[i], i, 1)
	}
	progs := make([]Program, n)
	progs[0] = func(p *Proc) error {
		_, err := p.ReduceOneSided(names, OpSum)
		return err
	}
	res, err := c.RunEach(progs)
	if err != nil {
		t.Fatal(err)
	}
	// 4 gets: 4 requests + 4 replies (one is loopback but still counted).
	if res.NetStats.TotalMsgs != 8 {
		t.Fatalf("one-sided reduce used %d msgs, want 8", res.NetStats.TotalMsgs)
	}
}

func TestSelfRacingProcessNeverReports(t *testing.T) {
	// A single process doing arbitrary put/get sequences is always ordered
	// by program order: zero reports expected (property-style sweep).
	for seed := int64(0); seed < 5; seed++ {
		c := newCluster(t, 1, core.NewVWDetector(), func(cfg *Config) { cfg.Seed = seed })
		c.MustAlloc("x", 0, 16)
		res, err := c.Run(func(p *Proc) error {
			for i := 0; i < 40; i++ {
				off := p.Rand().Intn(16)
				if p.Rand().Intn(2) == 0 {
					if err := p.Put("x", off, memory.Word(i)); err != nil {
						return err
					}
				} else if _, err := p.GetWord("x", off); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.RaceCount != 0 {
			t.Fatalf("seed %d: single process raced with itself: %v", seed, res.Races)
		}
	}
}

func TestErrorsSurfaceInResult(t *testing.T) {
	c := newCluster(t, 2, nil, nil)
	c.MustAlloc("x", 0, 1)
	sentinel := errors.New("boom")
	res, err := c.RunEach([]Program{
		func(p *Proc) error { return sentinel },
		func(p *Proc) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Errors[0], sentinel) || res.Errors[1] != nil {
		t.Fatalf("errors = %v", res.Errors)
	}
	if !errors.Is(res.FirstError(), sentinel) {
		t.Fatal("FirstError")
	}
}

func TestHeldLocksTracking(t *testing.T) {
	c := newCluster(t, 1, nil, nil)
	c.MustAlloc("a", 0, 1)
	c.MustAlloc("b", 0, 1)
	res, err := c.Run(func(p *Proc) error {
		p.MustLock("b")
		p.MustLock("a")
		if got := p.HeldLocks(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			return fmt.Errorf("held = %v", got)
		}
		p.MustUnlock("b")
		if got := p.HeldLocks(); len(got) != 1 || got[0] != 0 {
			return fmt.Errorf("after unlock: %v", got)
		}
		p.MustUnlock("a")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimePoolBalance runs a full runtime workout — user locks with
// clock-carrying unlocks, barriers, collectives, puts/gets/atomics — under
// both coherence protocols and asserts the transport's pool-ownership
// invariant: everything grabbed was released by the end of the run.
func TestRuntimePoolBalance(t *testing.T) {
	for _, coh := range []string{"write-update", "write-invalidate"} {
		coh := coh
		t.Run(coh, func(t *testing.T) {
			cp, err := coherence.FromName(coh)
			if err != nil {
				t.Fatal(err)
			}
			cfg := rdma.DefaultConfig(core.NewVWDetector(), nil)
			cfg.Coherence = cp
			c, err := New(Config{Procs: 4, Seed: 3, RDMA: cfg})
			if err != nil {
				t.Fatal(err)
			}
			c.MustAlloc("x", 0, 8)
			c.MustAlloc("s", 1, 8)
			res, err := c.Run(func(p *Proc) error {
				for i := 0; i < 10; i++ {
					p.MustLock("x")
					p.MustPut("x", p.ID(), memory.Word(i))
					p.MustGet("x", 0, 4)
					p.MustUnlock("x")
					p.MustFetchAdd("x", 4, 1)
				}
				p.Barrier()
				if _, err := p.ReduceCollective("s", memory.Word(p.ID()), OpSum, 1); err != nil {
					return err
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if ferr := res.FirstError(); ferr != nil {
				t.Fatal(ferr)
			}
			if got := c.System().PoolBalance(); got != (rdma.PoolBalance{}) {
				t.Errorf("pool balance after a clean runtime run = %+v, want all zero", got)
			}
		})
	}
}

// TestIncompatibleOptionsAreErrors is the misconfiguration table: every
// option pair rdma.Config.Validate rejects must come back from New as an
// error — never as a panic from the layers below.
func TestIncompatibleOptionsAreErrors(t *testing.T) {
	coh := func(name string) coherence.Protocol {
		p, err := coherence.FromName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name   string
		det    core.Detector
		mutate func(*Config)
	}{
		{"literal+word", core.NewVWDetector(), func(c *Config) {
			c.RDMA.Protocol, c.RDMA.Granularity = rdma.ProtocolLiteral, rdma.GranularityWord
		}},
		{"literal+write-invalidate", core.NewVWDetector(), func(c *Config) {
			c.RDMA.Protocol, c.RDMA.Coherence = rdma.ProtocolLiteral, coh("write-invalidate")
		}},
		{"literal+causal", core.NewVWDetector(), func(c *Config) {
			c.RDMA.Protocol, c.RDMA.Coherence = rdma.ProtocolLiteral, coh("causal")
		}},
		{"literal+mesi", core.NewVWDetector(), func(c *Config) {
			c.RDMA.Protocol, c.RDMA.Coherence = rdma.ProtocolLiteral, coh("mesi")
		}},
		{"literal+lockset", baseline.NewLockset(), func(c *Config) { c.RDMA.Protocol = rdma.ProtocolLiteral }},
		{"literal+epoch", baseline.NewEpoch(), func(c *Config) { c.RDMA.Protocol = rdma.ProtocolLiteral }},
		{"too-many-nodes", core.NewVWDetector(), func(c *Config) { c.Procs = vclock.MaxWireComponents + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Procs: 4, Seed: 1, RDMA: rdma.DefaultConfig(tc.det, nil)}
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("New accepted an incompatible configuration")
			}
		})
	}
}
