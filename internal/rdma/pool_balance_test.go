package rdma

import (
	"errors"
	"fmt"
	"testing"

	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// The pool-ownership invariant: every pooled per-operation struct grabbed
// during a run is released by the time the run ends, as long as every
// operation actually completed — including operations that completed *with
// an error* (range violations used to be the easy place to lose a buffer on
// an early return). Failure schedules that park an initiator forever are
// allowed to hold exactly that operation's structs, and nothing else.

// runBalance spawns ops on a rig, runs the kernel, and asserts the final
// pool balance.
func runBalance(t *testing.T, nodes int, cfg Config, alloc func(s *memory.Space),
	body func(r *rig, p *sim.Proc), wantErr bool, want PoolBalance) {
	t.Helper()
	r := newRig(t, nodes, cfg, alloc)
	r.k.Spawn("P0", func(p *sim.Proc) { body(r, p) })
	err := r.k.Run()
	if wantErr && err == nil {
		t.Fatal("run succeeded, expected a deadlock")
	}
	if !wantErr && err != nil {
		t.Fatal(err)
	}
	if got := r.sys.PoolBalance(); got != want {
		t.Errorf("pool balance = %+v, want %+v", got, want)
	}
}

// opsMix issues every operation shape, with both succeeding and failing
// (out-of-range) variants.
func opsMix(r *rig, p *sim.Proc) {
	n := r.sys.NIC(0)
	clk := vclock.New(r.space.N())
	area := memory.Area{}
	for _, name := range []string{"x"} {
		a, err := r.space.Lookup(name)
		if err != nil {
			panic(err)
		}
		area = a
	}
	seq := uint64(0)
	acc := func(k core.AccessKind) core.Access {
		seq++
		clk.Tick(0)
		return core.Access{Proc: 0, Seq: seq, Kind: k, Clock: clk}
	}
	check := func(wantErr bool, err error) {
		if wantErr != (err != nil) {
			panic(fmt.Sprintf("op error = %v, want error %v", err, wantErr))
		}
	}
	ab, err := n.Put(p, area, 0, []memory.Word{1, 2}, acc(core.Write))
	check(false, err)
	r.sys.ReleaseClock(ab)
	_, err = n.Put(p, area, 7, []memory.Word{1, 2}, acc(core.Write)) // out of range
	check(true, err)
	_, ab, err = n.Get(p, area, 0, 2, acc(core.Read))
	check(false, err)
	r.sys.ReleaseClock(ab)
	_, _, err = n.Get(p, area, -1, 2, acc(core.Read)) // out of range
	check(true, err)
	_, ab, err = n.FetchAdd(p, area, 0, 3, acc(core.Write))
	check(false, err)
	r.sys.ReleaseClock(ab)
	_, _, err = n.FetchAdd(p, area, 99, 3, acc(core.Write)) // out of range
	check(true, err)
	rel, _ := n.LockArea(p, area, 0)
	r.sys.ReleaseClock(rel)
	n.UnlockArea(area, 0, vclock.Masked{V: clk.Copy()}.CopyInto(r.sys.GrabClock()))
}

func balanceConfigs() map[string]Config {
	mk := func(mut func(*Config)) Config {
		cfg := DefaultConfig(core.NewExactVWDetector(), nil)
		mut(&cfg)
		return cfg
	}
	return map[string]Config{
		"piggyback":        mk(func(c *Config) {}),
		"literal":          mk(func(c *Config) { c.Protocol = ProtocolLiteral }),
		"write-invalidate": mk(func(c *Config) { c.Coherence = mustCoherence("write-invalidate") }),
		// Sparse (compressed) clocks merged across a word fan-out.
		"compress":      mk(func(c *Config) { c.Granularity = GranularityWord }),
		"detection-off": {LocksEnabled: true, NICDelay: 200, MemPerWord: 2},
	}
}

// TestPoolBalanceCleanRuns asserts grab==release for every pool after runs
// where all operations completed, successes and failures alike, across the
// protocol/coherence matrix.
func TestPoolBalanceCleanRuns(t *testing.T) {
	for name, cfg := range balanceConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			runBalance(t, 3, cfg, func(s *memory.Space) { s.Alloc("x", 1, 4) },
				opsMix, false, PoolBalance{})
		})
	}
}

// TestPoolBalanceWriteInvalidateRounds exercises the invalidation-join path
// (two sharers fetch, then the writer's put triggers an inval round) and
// requires a clean balance afterwards.
func TestPoolBalanceWriteInvalidateRounds(t *testing.T) {
	cfg := DefaultConfig(core.NewExactVWDetector(), nil)
	cfg.Coherence = mustCoherence("write-invalidate")
	r := newRig(t, 3, cfg, func(s *memory.Space) { s.Alloc("x", 0, 4) })
	area := mustArea(t, r.space, "x")
	spawnReader := func(id int) {
		r.k.Spawn(fmt.Sprintf("R%d", id), func(p *sim.Proc) {
			clk := vclock.New(3)
			for i := 0; i < 3; i++ {
				clk.Tick(id)
				_, ab, err := r.sys.NIC(id).Get(p, area, 0, 2, core.Access{Proc: id, Seq: uint64(i + 1), Kind: core.Read, Clock: clk})
				if err != nil {
					panic(err)
				}
				r.sys.ReleaseClock(ab)
				p.Sleep(500 * sim.Nanosecond)
			}
		})
	}
	spawnReader(1)
	spawnReader(2)
	r.k.Spawn("W0", func(p *sim.Proc) {
		clk := vclock.New(3)
		for i := 0; i < 3; i++ {
			p.Sleep(700 * sim.Nanosecond)
			clk.Tick(0)
			ab, err := r.sys.NIC(0).Put(p, area, 0, []memory.Word{memory.Word(i)}, core.Access{Proc: 0, Seq: uint64(i + 1), Kind: core.Write, Clock: clk})
			if err != nil {
				panic(err)
			}
			r.sys.ReleaseClock(ab)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.sys.PoolBalance(); got != (PoolBalance{}) {
		t.Errorf("pool balance = %+v, want all zero", got)
	}
	if r.sys.CoherenceStats().Invalidations == 0 {
		t.Error("schedule produced no invalidation rounds; the test lost its point")
	}
}

// TestPoolBalanceDownLink pins the failure-schedule accounting: a request
// dropped on a cut link parks its initiator forever. The dropped request
// buffer itself is reclaimed by the network drop hook (it used to leak),
// so the only live struct is the stuck operation's continuation state.
// The subtest keeps the name it had while a second, legacy initiator was
// checked alongside it.
func TestPoolBalanceDownLink(t *testing.T) {
	t.Run("legacy=false", func(t *testing.T) {
		cfg := DefaultConfig(core.NewExactVWDetector(), nil)
		runBalance(t, 2, cfg, func(s *memory.Space) { s.Alloc("x", 1, 4) },
			func(r *rig, p *sim.Proc) {
				r.net.CutLink(0, 1)
				clk := vclock.New(2)
				clk.Tick(0)
				r.sys.NIC(0).Put(p, mustAreaPanic(r.space, "x"), 0, []memory.Word{1},
					core.Access{Proc: 0, Seq: 1, Kind: core.Write, Clock: clk})
				panic("put on a cut link returned")
			}, true, PoolBalance{InitOps: 1})
	})
}

// TestPoolBalanceDroppedReply cuts the home→initiator direction instead:
// the request is served, the reply vanishes. The drop hook reclaims the
// pooled resp (another former leak); the home-side op completed. The stuck
// initiator keeps exactly its own continuation state plus the request
// buffer it still owns — the reply that would have proven the home done
// with it never arrived, so it stays reachable via the operation, not
// leaked.
func TestPoolBalanceDroppedReply(t *testing.T) {
	cfg := DefaultConfig(core.NewExactVWDetector(), nil)
	runBalance(t, 2, cfg, func(s *memory.Space) { s.Alloc("x", 1, 4) },
		func(r *rig, p *sim.Proc) {
			r.net.CutLink(1, 0)
			clk := vclock.New(2)
			clk.Tick(0)
			r.sys.NIC(0).Put(p, mustAreaPanic(r.space, "x"), 0, []memory.Word{1},
				core.Access{Proc: 0, Seq: 1, Kind: core.Write, Clock: clk})
			panic("put with a cut reply link returned")
		}, true, PoolBalance{Reqs: 1, InitOps: 1})
	// The park label must name the stuck hop for the deadlock report.
	r := newRig(t, 2, cfg, func(s *memory.Space) { s.Alloc("x", 1, 4) })
	r.net.CutLink(1, 0)
	r.k.Spawn("P0", func(p *sim.Proc) {
		clk := vclock.New(2)
		clk.Tick(0)
		r.sys.NIC(0).Put(p, mustAreaPanic(r.space, "x"), 0, []memory.Word{1},
			core.Access{Proc: 0, Seq: 1, Kind: core.Write, Clock: clk})
	})
	err := r.k.Run()
	var d *sim.DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if len(d.Blocked) != 1 || d.Blocked[0] != "P0: rdma put.req" {
		t.Errorf("blocked = %v, want [P0: rdma put.req]", d.Blocked)
	}
}

func mustAreaPanic(s *memory.Space, name string) memory.Area {
	a, err := s.Lookup(name)
	if err != nil {
		panic(err)
	}
	return a
}

func mustCoherence(name string) coherence.Protocol {
	p, err := coherence.FromName(name)
	if err != nil {
		panic(err)
	}
	return p
}
