package rdma

import (
	"strings"
	"testing"

	"dsmrace/internal/baseline"
	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// rig is a minimal cluster for NIC-level tests.
type rig struct {
	k     *sim.Kernel
	net   *network.Network
	space *memory.Space
	sys   *System
	col   *core.Collector
}

func newRig(t *testing.T, nodes int, cfg Config, alloc func(s *memory.Space)) *rig {
	t.Helper()
	k := sim.NewKernel(sim.Config{Seed: 1})
	nw := network.New(k, nodes, network.Constant{L: 100 * sim.Nanosecond})
	space := memory.NewSpace(nodes, 64, 4096)
	if alloc != nil {
		alloc(space)
	}
	col := cfg.Collector
	if col == nil && cfg.Detector != nil {
		col = &core.Collector{}
		cfg.Collector = col
	}
	sys := NewSystem(nw, space, cfg)
	return &rig{k: k, net: nw, space: space, sys: sys, col: col}
}

func mustArea(t *testing.T, s *memory.Space, name string) memory.Area {
	t.Helper()
	a, err := s.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func wacc(proc int, seq uint64, clk vclock.VC) core.Access {
	return core.Access{Proc: proc, Seq: seq, Kind: core.Write, Clock: clk}
}

func racc(proc int, seq uint64, clk vclock.VC) core.Access {
	return core.Access{Proc: proc, Seq: seq, Kind: core.Read, Clock: clk}
}

func TestPutGetRoundTrip(t *testing.T) {
	r := newRig(t, 2, DefaultConfig(core.NewVWDetector(), nil), func(s *memory.Space) {
		s.Alloc("x", 1, 8)
	})
	area := mustArea(t, r.space, "x")
	var got []memory.Word
	r.k.Spawn("P0", func(p *sim.Proc) {
		clk := vclock.New(2)
		clk.Tick(0)
		absorb, err := r.sys.NIC(0).Put(p, area, 2, []memory.Word{7, 8, 9}, wacc(0, 1, clk.Copy()))
		if err != nil {
			t.Errorf("put: %v", err)
		}
		clk.Merge(absorb.V) // completion edge: the writer learns the home tick
		clk.Tick(0)
		data, _, err := r.sys.NIC(0).Get(p, area, 0, 6, racc(0, 2, clk.Copy()))
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = data
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []memory.Word{0, 0, 7, 8, 9, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if r.col.Total() != 0 {
		t.Fatalf("sequential ops raced: %v", r.col.Reports())
	}
}

func TestOneSidedNoTargetProcessNeeded(t *testing.T) {
	// Node 1 has no process at all: its memory is still fully accessible —
	// the OS-bypass property of §III-B.
	r := newRig(t, 2, DefaultConfig(nil, nil), func(s *memory.Space) {
		s.Alloc("x", 1, 4)
	})
	area := mustArea(t, r.space, "x")
	ok := false
	r.k.Spawn("P0", func(p *sim.Proc) {
		if _, err := r.sys.NIC(0).Put(p, area, 0, []memory.Word{42}, wacc(0, 1, nil)); err != nil {
			t.Errorf("put: %v", err)
		}
		data, _, err := r.sys.NIC(0).Get(p, area, 0, 1, racc(0, 2, nil))
		if err != nil || data[0] != 42 {
			t.Errorf("get = %v, %v", data, err)
		}
		ok = true
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("program did not complete")
	}
}

func TestFig2MessageCounts(t *testing.T) {
	// Fig. 2: put is one data-carrying message; get is a request plus a
	// data-carrying reply. (Completion acks carry no data.)
	r := newRig(t, 2, DefaultConfig(nil, nil), func(s *memory.Space) {
		s.Alloc("x", 1, 4)
	})
	area := mustArea(t, r.space, "x")
	r.k.Spawn("P0", func(p *sim.Proc) {
		r.sys.NIC(0).Put(p, area, 0, []memory.Word{1}, wacc(0, 1, nil))
		r.sys.NIC(0).Get(p, area, 0, 1, racc(0, 2, nil))
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	s := r.net.Stats().Snapshot()
	if s.Msgs[network.KindPutReq] != 1 || s.Msgs[network.KindPutAck] != 1 {
		t.Fatalf("put messages: %v", s)
	}
	if s.Msgs[network.KindGetReq] != 1 || s.Msgs[network.KindGetReply] != 1 {
		t.Fatalf("get messages: %v", s)
	}
	if s.TotalMsgs != 4 {
		t.Fatalf("total = %d", s.TotalMsgs)
	}
	// The put request carries the 8-byte payload; the get reply does too.
	if s.Bytes[network.KindPutReq] != network.HeaderBytes+8 {
		t.Fatalf("put.req bytes = %d", s.Bytes[network.KindPutReq])
	}
	if s.Bytes[network.KindGetReply] != network.HeaderBytes+8 {
		t.Fatalf("get.reply bytes = %d", s.Bytes[network.KindGetReply])
	}
}

// runFig5a drives the Fig. 5(a) scenario under the given config: P0 and P2
// put concurrently into P1's memory.
func runFig5a(t *testing.T, cfg Config) (*rig, *core.Collector) {
	t.Helper()
	r := newRig(t, 3, cfg, func(s *memory.Space) {
		s.Alloc("a", 1, 1)
	})
	area := mustArea(t, r.space, "a")
	r.k.Spawn("P0", func(p *sim.Proc) {
		clk := vclock.New(3)
		clk.Tick(0) // 100
		r.sys.NIC(0).Put(p, area, 0, []memory.Word{1}, wacc(0, 1, clk))
	})
	r.k.Spawn("P2", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond) // arrive strictly after m1
		clk := vclock.New(3)
		clk.Tick(2) // 001
		r.sys.NIC(2).Put(p, area, 0, []memory.Word{2}, wacc(2, 1, clk))
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	return r, r.sys.Collector()
}

func TestFig5aPiggyback(t *testing.T) {
	_, col := runFig5a(t, DefaultConfig(core.NewVWDetector(), nil))
	if col.Total() != 1 {
		t.Fatalf("races = %d, want 1", col.Total())
	}
	rep := col.Reports()[0]
	if rep.StoredClock.String() != "110" || rep.Current.Clock.String() != "001" {
		t.Fatalf("clocks %s × %s, want 110 × 001", rep.StoredClock, rep.Current.Clock)
	}
}

func TestFig5aLiteralSameVerdict(t *testing.T) {
	cfg := DefaultConfig(core.NewVWDetector(), nil)
	cfg.Protocol = ProtocolLiteral
	_, col := runFig5a(t, cfg)
	if col.Total() != 1 {
		t.Fatalf("literal races = %d, want 1", col.Total())
	}
	rep := col.Reports()[0]
	if rep.StoredClock.String() != "110" || rep.Current.Clock.String() != "001" {
		t.Fatalf("clocks %s × %s, want 110 × 001", rep.StoredClock, rep.Current.Clock)
	}
}

func TestLiteralMessageBlowup(t *testing.T) {
	// Algorithm-1-verbatim put: lock(2) + get_clock(2) + put(2) +
	// update_clock_W(2+1) + update_clock(2+1) + unlock(1) = 13 messages,
	// versus 2 for the piggyback protocol. This is the E-T2 headline.
	count := func(proto Protocol) uint64 {
		cfg := DefaultConfig(core.NewVWDetector(), nil)
		cfg.Protocol = proto
		r := newRig(t, 2, cfg, func(s *memory.Space) { s.Alloc("x", 1, 1) })
		area := mustArea(t, r.space, "x")
		r.k.Spawn("P0", func(p *sim.Proc) {
			clk := vclock.New(2)
			clk.Tick(0)
			r.sys.NIC(0).Put(p, area, 0, []memory.Word{1}, wacc(0, 1, clk))
		})
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		return r.net.Stats().TotalMsgs
	}
	lit, pig := count(ProtocolLiteral), count(ProtocolPiggyback)
	if lit != 13 {
		t.Fatalf("literal put = %d msgs, want 13", lit)
	}
	if pig != 2 {
		t.Fatalf("piggyback put = %d msgs, want 2", pig)
	}
}

func TestLiteralGetMessageCount(t *testing.T) {
	cfg := DefaultConfig(core.NewVWDetector(), nil)
	cfg.Protocol = ProtocolLiteral
	r := newRig(t, 2, cfg, func(s *memory.Space) { s.Alloc("x", 1, 1) })
	area := mustArea(t, r.space, "x")
	r.k.Spawn("P0", func(p *sim.Proc) {
		clk := vclock.New(2)
		clk.Tick(0)
		r.sys.NIC(0).Get(p, area, 0, 1, racc(0, 1, clk))
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	// lock(2) + get_clock(2) + get(2) + update_clock(2+1) + unlock(1) = 10.
	if got := r.net.Stats().TotalMsgs; got != 10 {
		t.Fatalf("literal get = %d msgs, want 10", got)
	}
}

func TestFig3PutDelayedUntilGetFinishes(t *testing.T) {
	// A put arriving while a get occupies the area must wait (Fig. 3): the
	// get returns the pre-put data.
	cfg := DefaultConfig(nil, nil)
	cfg.MemPerWord = 10 * sim.Nanosecond // long occupancy window
	r := newRig(t, 3, cfg, func(s *memory.Space) { s.Alloc("buf", 1, 512) })
	area := mustArea(t, r.space, "buf")
	// Pre-fill with ones.
	init := make([]memory.Word, 512)
	for i := range init {
		init[i] = 1
	}
	r.space.Node(1).WritePublic(area.Off, init)

	var got []memory.Word
	r.k.Spawn("reader", func(p *sim.Proc) {
		data, _, err := r.sys.NIC(0).Get(p, area, 0, 512, racc(0, 1, nil))
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = data
	})
	r.k.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(150 * sim.Nanosecond) // arrives mid-occupancy
		twos := make([]memory.Word, 512)
		for i := range twos {
			twos[i] = 2
		}
		if _, err := r.sys.NIC(2).Put(p, area, 0, twos, wacc(2, 1, nil)); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, w := range got {
		if w != 1 {
			t.Fatalf("get observed the delayed put at word %d: %v — Fig. 3 violated", i, w)
		}
	}
	// And the put did land afterwards.
	final := make([]memory.Word, 1)
	r.space.Node(1).ReadPublic(area.Off, final)
	if final[0] != 2 {
		t.Fatalf("put never applied: %v", final)
	}
}

func TestFig3AblationLocksOff(t *testing.T) {
	// Without NIC locks the same schedule lets the put overtake the get's
	// occupancy window: the read observes mixed state.
	cfg := DefaultConfig(nil, nil)
	cfg.MemPerWord = 10 * sim.Nanosecond
	cfg.LocksEnabled = false
	r := newRig(t, 3, cfg, func(s *memory.Space) { s.Alloc("buf", 1, 512) })
	area := mustArea(t, r.space, "buf")
	init := make([]memory.Word, 512)
	for i := range init {
		init[i] = 1
	}
	r.space.Node(1).WritePublic(area.Off, init)

	var got []memory.Word
	r.k.Spawn("reader", func(p *sim.Proc) {
		data, _, _ := r.sys.NIC(0).Get(p, area, 0, 512, racc(0, 1, nil))
		got = data
	})
	r.k.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(150 * sim.Nanosecond)
		// A small put whose occupancy ends inside the get's long occupancy
		// window: without the lock it lands mid-get.
		r.sys.NIC(2).Put(p, area, 0, []memory.Word{2}, wacc(2, 1, nil))
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("expected the unlocked put to be visible mid-get (atomicity ablation); got[0]=%d", got[0])
	}
}

func TestUserLockExcludesRemoteOps(t *testing.T) {
	cfg := DefaultConfig(nil, nil)
	r := newRig(t, 2, cfg, func(s *memory.Space) { s.Alloc("x", 1, 1) })
	area := mustArea(t, r.space, "x")
	var putDone, unlockAt sim.Time
	r.k.Spawn("holder", func(p *sim.Proc) {
		r.sys.NIC(0).LockArea(p, area, 0) //nolint:errcheck
		p.Sleep(50 * sim.Microsecond)
		unlockAt = p.Now()
		r.sys.NIC(0).UnlockArea(area, 0, vclock.Masked{})
	})
	r.k.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(1 * sim.Microsecond)
		r.sys.NIC(1).Put(p, area, 0, []memory.Word{9}, wacc(1, 1, nil))
		putDone = p.Now()
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if putDone <= unlockAt {
		t.Fatalf("put completed at %v before unlock at %v", putDone, unlockAt)
	}
}

func TestLockReentrantForHolder(t *testing.T) {
	// The lock holder's own puts proceed (re-entrant NIC lock).
	cfg := DefaultConfig(nil, nil)
	r := newRig(t, 2, cfg, func(s *memory.Space) { s.Alloc("x", 1, 1) })
	area := mustArea(t, r.space, "x")
	var when sim.Time
	r.k.Spawn("holder", func(p *sim.Proc) {
		r.sys.NIC(0).LockArea(p, area, 0) //nolint:errcheck
		r.sys.NIC(0).Put(p, area, 0, []memory.Word{5}, wacc(0, 1, nil))
		when = p.Now()
		r.sys.NIC(0).UnlockArea(area, 0, vclock.Masked{})
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if when == 0 {
		t.Fatal("put under own lock never completed")
	}
}

func TestAtomicsFetchAddAndCAS(t *testing.T) {
	cfg := DefaultConfig(nil, nil)
	r := newRig(t, 3, cfg, func(s *memory.Space) { s.Alloc("ctr", 0, 1) })
	area := mustArea(t, r.space, "ctr")
	sum := 0
	for i := 1; i <= 2; i++ {
		i := i
		r.k.Spawn("adder", func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				old, _, err := r.sys.NIC(i).FetchAdd(p, area, 0, 1, wacc(i, uint64(j), nil))
				if err != nil {
					t.Errorf("fetchadd: %v", err)
				}
				sum += int(old)
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	final := make([]memory.Word, 1)
	r.space.Node(0).ReadPublic(area.Off, final)
	if final[0] != 20 {
		t.Fatalf("counter = %d, want 20", final[0])
	}

	// CAS on top of the final value.
	r2 := newRig(t, 2, cfg, func(s *memory.Space) { s.Alloc("ctr", 0, 1) })
	area2 := mustArea(t, r2.space, "ctr")
	r2.k.Spawn("caser", func(p *sim.Proc) {
		old, _, err := r2.sys.NIC(1).CompareAndSwap(p, area2, 0, 0, 7, wacc(1, 1, nil))
		if err != nil || old != 0 {
			t.Errorf("cas1 = %d, %v", old, err)
		}
		old, _, err = r2.sys.NIC(1).CompareAndSwap(p, area2, 0, 0, 9, wacc(1, 2, nil))
		if err != nil || old != 7 {
			t.Errorf("cas2 must fail with old=7: %d, %v", old, err)
		}
	})
	if err := r2.k.Run(); err != nil {
		t.Fatal(err)
	}
	final2 := make([]memory.Word, 1)
	r2.space.Node(0).ReadPublic(area2.Off, final2)
	if final2[0] != 7 {
		t.Fatalf("cas result = %d, want 7", final2[0])
	}
}

func TestOutOfAreaAccessRejected(t *testing.T) {
	cfg := DefaultConfig(nil, nil)
	r := newRig(t, 2, cfg, func(s *memory.Space) {
		s.Alloc("x", 1, 2)
		s.Alloc("y", 1, 2) // adjacent — must not be reachable through x
	})
	area := mustArea(t, r.space, "x")
	r.k.Spawn("P0", func(p *sim.Proc) {
		if _, err := r.sys.NIC(0).Put(p, area, 1, []memory.Word{1, 2}, wacc(0, 1, nil)); err == nil {
			t.Error("put spilling into neighbour area must fail")
		} else if !strings.Contains(err.Error(), "outside area") {
			t.Errorf("unexpected error: %v", err)
		}
		if _, _, err := r.sys.NIC(0).Get(p, area, 0, 3, racc(0, 2, nil)); err == nil {
			t.Error("get past area end must fail")
		}
		if _, _, err := r.sys.NIC(0).FetchAdd(p, area, 5, 1, wacc(0, 3, nil)); err == nil {
			t.Error("atomic past area end must fail")
		}
		if _, _, err := r.sys.NIC(0).Get(p, area, -1, 1, racc(0, 4, nil)); err == nil {
			t.Error("negative offset must fail")
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGranularityNodeVsArea(t *testing.T) {
	// Two different areas on the same home: concurrent writes to *different*
	// areas are a race at node granularity (the figures' model) but not at
	// area granularity.
	run := func(g Granularity) int {
		cfg := DefaultConfig(core.NewVWDetector(), nil)
		cfg.Granularity = g
		r := newRig(t, 3, cfg, func(s *memory.Space) {
			s.Alloc("a", 1, 1)
			s.Alloc("b", 1, 1)
		})
		areaA := mustArea(t, r.space, "a")
		areaB := mustArea(t, r.space, "b")
		r.k.Spawn("P0", func(p *sim.Proc) {
			clk := vclock.New(3)
			clk.Tick(0)
			r.sys.NIC(0).Put(p, areaA, 0, []memory.Word{1}, wacc(0, 1, clk))
		})
		r.k.Spawn("P2", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			clk := vclock.New(3)
			clk.Tick(2)
			r.sys.NIC(2).Put(p, areaB, 0, []memory.Word{2}, wacc(2, 1, clk))
		})
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		return r.sys.Collector().Total()
	}
	if got := run(GranularityArea); got != 0 {
		t.Fatalf("area granularity: %d races, want 0", got)
	}
	if got := run(GranularityNode); got != 1 {
		t.Fatalf("node granularity: %d races, want 1", got)
	}
}

func TestAbsorbOnGetReply(t *testing.T) {
	cfg := DefaultConfig(core.NewVWDetector(), nil)
	r := newRig(t, 2, cfg, func(s *memory.Space) { s.Alloc("x", 1, 1) })
	area := mustArea(t, r.space, "x")
	var absorbed vclock.VC
	r.k.Spawn("P0", func(p *sim.Proc) {
		clk := vclock.New(2)
		clk.Tick(0)
		r.sys.NIC(0).Put(p, area, 0, []memory.Word{1}, wacc(0, 1, clk.Copy()))
		clk.Tick(0)
		_, ab, err := r.sys.NIC(0).Get(p, area, 0, 1, racc(0, 2, clk.Copy()))
		if err != nil {
			t.Error(err)
		}
		absorbed = ab.V
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	// W after the put: merge(00,10)=10, home tick -> 11.
	if absorbed.String() != "11" {
		t.Fatalf("absorbed = %s, want 11", absorbed)
	}
}

func TestStorageBytesAccounting(t *testing.T) {
	cfg := DefaultConfig(core.NewVWDetector(), nil)
	r := newRig(t, 4, cfg, func(s *memory.Space) {
		s.Alloc("a", 0, 1)
		s.Alloc("b", 1, 1)
	})
	a := mustArea(t, r.space, "a")
	b := mustArea(t, r.space, "b")
	r.k.Spawn("P2", func(p *sim.Proc) {
		clk := vclock.New(4)
		clk.Tick(2)
		r.sys.NIC(2).Put(p, a, 0, []memory.Word{1}, wacc(2, 1, clk.Copy()))
		clk.Tick(2)
		r.sys.NIC(2).Put(p, b, 0, []memory.Word{1}, wacc(2, 2, clk.Copy()))
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	perArea := 2 * (2 + 8*4 + 8) // V + W for n=4, each with a one-word occupancy mask
	if got := r.sys.StorageBytes(); got != 2*perArea {
		t.Fatalf("storage = %d, want %d", got, 2*perArea)
	}
}

func TestDetectionOffCarriesNoClockBytes(t *testing.T) {
	run := func(det core.Detector) uint64 {
		cfg := DefaultConfig(det, nil)
		r := newRig(t, 2, cfg, func(s *memory.Space) { s.Alloc("x", 1, 1) })
		area := mustArea(t, r.space, "x")
		r.k.Spawn("P0", func(p *sim.Proc) {
			clk := vclock.New(2)
			clk.Tick(0)
			r.sys.NIC(0).Put(p, area, 0, []memory.Word{1}, wacc(0, 1, clk))
		})
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		return r.net.Stats().TotalBytes
	}
	on := run(core.NewVWDetector())
	off := run(nil)
	wantDelta := uint64(2 * (2 + 8*2)) // clock on request + merged clock on ack
	if on-off != wantDelta {
		t.Fatalf("clock bytes on wire = %d, want %d", on-off, wantDelta)
	}
}

// TestPiggybackShipsSparseClocksAndCoveredMarker pins the clock wire
// format's accounting: a request clock with one live component of 130 ships
// as header, occupancy bitmap and one value, and a covering writer's ack
// (which vw-exact elides) as the 2-byte covered marker.
func TestPiggybackShipsSparseClocksAndCoveredMarker(t *testing.T) {
	const n = 130
	r := newRig(t, n, DefaultConfig(core.NewExactVWDetector(), nil), func(s *memory.Space) { s.Alloc("x", 1, 1) })
	area := mustArea(t, r.space, "x")
	r.k.Spawn("P0", func(p *sim.Proc) {
		clk := vclock.NewMasked(n)
		clk.Tick(0)
		acc := core.Access{Proc: 0, Seq: 1, Kind: core.Write, Clock: clk.V, ClockNZ: clk.M}
		absorb, err := r.sys.NIC(0).Put(p, area, 0, []memory.Word{1}, acc)
		if err != nil || !absorb.IsNil() {
			t.Errorf("put: absorb %+v, err %v; want nothing to absorb", absorb, err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.net.Stats()
	sparse := 2 + 8*vclock.MaskWords(n) + 8
	if got, want := st.Bytes[network.KindPutReq], uint64(network.HeaderBytes+memory.WordBytes+sparse); got != want {
		t.Errorf("put request: %d bytes, want %d (header, one word, sparse clock)", got, want)
	}
	if got, want := st.Bytes[network.KindPutAck], uint64(network.HeaderBytes+2); got != want {
		t.Errorf("put ack: %d bytes, want %d (header, covered marker)", got, want)
	}
}

func TestEpochDetectorWorksThroughNIC(t *testing.T) {
	cfg := DefaultConfig(baseline.NewEpoch(), nil)
	_, col := runFig5a(t, cfg)
	if col.Total() != 1 {
		t.Fatalf("epoch races = %d, want 1", col.Total())
	}
	if col.Reports()[0].Detector != "epoch" {
		t.Fatalf("detector = %s", col.Reports()[0].Detector)
	}
}

func TestProtocolAndGranularityStrings(t *testing.T) {
	if ProtocolLiteral.String() != "literal" || ProtocolPiggyback.String() != "piggyback" {
		t.Fatal("protocol names")
	}
	if GranularityArea.String() != "area" || GranularityNode.String() != "node" {
		t.Fatal("granularity names")
	}
}
