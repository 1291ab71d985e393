package dsmrace

import (
	"fmt"
	"testing"

	"dsmrace/internal/dsm"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/rdma"
	"dsmrace/internal/vclock"
)

// clockKinds are the message kinds whose only payload beyond the header is
// a clock: what an uninstrumented run must ship header-only.
var clockKinds = []network.Kind{network.KindLockGrant, network.KindUnlock, network.KindBarrier}

// runClockless runs a lock-ring-plus-barrier program on four processes whose
// two locks are homed on different shards at K=2, and returns the run, its
// cluster and every process's clock at exit.
func runClockless(t *testing.T, proto rdma.Protocol, det string, trace bool, kernels int) (*dsm.Result, *dsm.Cluster, []vclock.VC) {
	t.Helper()
	const procs, rounds = 4, 4
	cfg := rdma.DefaultConfig(nil, nil)
	if det != "off" {
		d, err := NewDetector(det)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Detector = d
	}
	cfg.Protocol = proto
	c, err := dsm.New(dsm.Config{Procs: procs, Seed: 5, RDMA: cfg, Kernels: kernels, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	for i, home := range []int{0, procs - 1} {
		c.MustAlloc(fmt.Sprintf("l%d", i), home, 2)
	}
	exit := make([]vclock.VC, procs)
	res, err := c.Run(func(p *dsm.Proc) error {
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("l%d", (p.ID()+r)%2)
			p.MustLock(name)
			v := p.MustGetWord(name, 0)
			p.MustPut(name, 0, v+memory.Word(1))
			p.MustUnlock(name)
			p.Barrier()
		}
		exit[p.ID()] = p.Clock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ferr := res.FirstError(); ferr != nil {
		t.Fatal(ferr)
	}
	for s := 0; s < c.System().PoolShards(); s++ {
		if b := c.System().PoolBalanceShard(s); b != (rdma.PoolBalance{}) {
			t.Errorf("pool shard %d unbalanced: %+v", s, b)
		}
	}
	return res, c, exit
}

// TestClocklessRunShipsNoClock pins the uninstrumented run: with no detector
// and no tracing nothing reads a clock (rdma.System.ClocksOn), so no process
// holds one, no barrier epoch builds a merged clock, and every lock grant,
// unlock and barrier message is exactly a header — under both wire
// protocols and across shards. The same run with tracing, or with the
// clockless-verdict detectors lockset and epoch (which keep clocks for
// report context), still ships clocks on all three kinds.
func TestClocklessRunShipsNoClock(t *testing.T) {
	for _, proto := range []rdma.Protocol{rdma.ProtocolPiggyback, rdma.ProtocolLiteral} {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K=%d", proto, k), func(t *testing.T) {
				res, c, exit := runClockless(t, proto, "off", false, k)
				if res.Kernels != k {
					t.Fatalf("ran on %d kernels (%s), want %d", res.Kernels, res.KernelNote, k)
				}
				if c.System().ClocksOn() {
					t.Fatal("ClocksOn with no detector and no tracing")
				}
				st := res.NetStats
				for _, kind := range clockKinds {
					if st.Msgs[kind] == 0 {
						t.Fatalf("no %s message: the run proves nothing", kind)
					}
					if want := st.Msgs[kind] * network.HeaderBytes; st.Bytes[kind] != want {
						t.Errorf("%s: %d messages carry %d B, want %d (header only)", kind, st.Msgs[kind], st.Bytes[kind], want)
					}
				}
				for id, clk := range exit {
					if len(clk) != 0 {
						t.Errorf("P%d holds clock %v, want none", id, clk)
					}
				}
				if n := c.System().BarrierClocksGrabbed(); n != 0 {
					t.Errorf("%d merged barrier clocks grabbed, want 0", n)
				}
			})
		}
	}
	controls := []struct {
		proto rdma.Protocol
		det   string
		trace bool
	}{
		{rdma.ProtocolPiggyback, "off", true},
		{rdma.ProtocolLiteral, "off", true},
		{rdma.ProtocolPiggyback, "lockset", false},
		{rdma.ProtocolPiggyback, "epoch", false},
	}
	for _, cc := range controls {
		t.Run(fmt.Sprintf("control/%s/%s/trace=%v", cc.proto, cc.det, cc.trace), func(t *testing.T) {
			res, c, exit := runClockless(t, cc.proto, cc.det, cc.trace, 1)
			if !c.System().ClocksOn() {
				t.Fatal("ClocksOn false with a clock consumer")
			}
			st := res.NetStats
			for _, kind := range clockKinds {
				if st.Bytes[kind] <= st.Msgs[kind]*network.HeaderBytes {
					t.Errorf("%s: %d messages carry %d B, want clocks beyond the headers", kind, st.Msgs[kind], st.Bytes[kind])
				}
			}
			for id, clk := range exit {
				if len(clk) == 0 {
					t.Errorf("P%d holds no clock", id)
				}
			}
			if c.System().BarrierClocksGrabbed() == 0 {
				t.Error("no merged barrier clock grabbed")
			}
		})
	}
}
