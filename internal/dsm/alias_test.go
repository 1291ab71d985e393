package dsm

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"dsmrace/internal/baseline"
	"dsmrace/internal/core"
	"dsmrace/internal/fault"
	"dsmrace/internal/memory"
	"dsmrace/internal/rdma"
	"dsmrace/internal/sim"
	"dsmrace/internal/trace"
	"dsmrace/internal/vclock"
)

// Under the piggyback protocol an access aliases its process's live clock
// and held-lock list, and a barrier arrival aliases the clock too; every
// retainer copies at handling time (ARCHITECTURE.md, "Who owns the bytes").
// These tests fail when a retainer forgets to.

// keepingObserver is a user-supplied rdma.Observer that retains every access
// the way Observer.Access's contract says to: it copies the aliased fields
// at handling time.
type keepingObserver struct{ kept []core.Access }

func (o *keepingObserver) Access(acc core.Access, _ memory.Area, _, _ int, _ sim.Time) {
	acc.Clock, acc.Locks = acc.Clock.Copy(), slices.Clone(acc.Locks)
	o.kept = append(o.kept, acc)
}
func (o *keepingObserver) LockAcq(int, memory.Area, sim.Time) {}
func (o *keepingObserver) LockRel(int, memory.Area, sim.Time) {}

// TestAliasHeldLocksAndClocksSurvive races two processes on one area while
// both hold (disjoint) locks, then has each change its lock set and keep
// ticking. Every retained copy — the reports' Current.Locks and Prior.Locks,
// the trace recorder's clocks, what a user's observer kept — must still show
// what the process held at the operation, recorded here independently at
// issue time. (The trace recorder is itself the run's observer, so the user's
// observer watches an untraced run.)
func TestAliasHeldLocksAndClocksSurvive(t *testing.T) {
	type opKey struct {
		proc int
		seq  uint64
	}
	for _, det := range []core.Detector{baseline.NewLockset(), core.NewExactVWDetector()} {
		for _, watcher := range []string{"trace", "observer"} {
			t.Run(det.Name()+"/"+watcher, func(t *testing.T) {
				obs := &keepingObserver{}
				c := newCluster(t, 3, det, func(cfg *Config) {
					if watcher == "trace" {
						cfg.Trace = true
					} else {
						cfg.RDMA.Observer = obs
					}
				})
				c.MustAlloc("x", 2, 1)
				for _, l := range []string{"a", "b", "c", "d"} {
					c.MustAlloc(l, 2, 1)
				}
				locks := map[opKey][]int{}
				clocks := map[opKey]vclock.VC{}
				put := func(p *Proc) {
					k := opKey{p.ID(), p.Seq() + 1}
					locks[k] = p.HeldLocks()
					clk := p.Clock()
					clk[p.ID()]++ // the operation ticks before it stamps
					clocks[k] = clk
					p.MustPut("x", 0, memory.Word(k.seq))
				}
				res, err := c.RunEach([]Program{
					func(p *Proc) error {
						p.MustLock("a")
						p.MustLock("b")
						put(p) // holds {a,b}
						p.MustUnlock("b")
						p.MustLock("c")
						p.Sleep(200 * sim.Microsecond)
						put(p) // holds {a,c}
						p.MustUnlock("a")
						p.MustLock("b")
						put(p) // holds {b,c}
						p.MustUnlock("b")
						p.MustUnlock("c")
						return nil
					},
					func(p *Proc) error {
						p.Sleep(50 * sim.Microsecond)
						p.MustLock("d")
						put(p) // holds {d}, concurrent with P0's first write
						p.MustUnlock("d")
						p.MustLock("a")
						p.MustUnlock("a")
						return nil
					},
					nil,
				})
				if err != nil {
					t.Fatal(err)
				}
				if ferr := res.FirstError(); ferr != nil {
					t.Fatal(ferr)
				}
				if len(res.Races) == 0 {
					t.Fatal("no race reported; the scenario lost its teeth")
				}
				sawCurrent, sawPrior := false, false
				check := func(what string, a core.Access) bool {
					want := locks[opKey{a.Proc, a.Seq}]
					if !slices.Equal(a.Locks, want) {
						t.Errorf("%s of P%d op %d holds %v, held %v at issue", what, a.Proc, a.Seq, a.Locks, want)
					}
					return len(want) > 0
				}
				for _, r := range res.Races {
					sawCurrent = check("report's Current", r.Current) || sawCurrent
					if r.Prior != nil {
						sawPrior = check("report's Prior", *r.Prior) || sawPrior
					}
				}
				if !sawCurrent || !sawPrior {
					t.Errorf("reports carried held locks in Current: %v, in Prior: %v; want both", sawCurrent, sawPrior)
				}
				// Each watcher must have seen every put, stamped as issued.
				puts := 0
				checkClock := func(who string, proc int, seq uint64, got vclock.VC) {
					want, ok := clocks[opKey{proc, seq}]
					if !ok {
						return
					}
					puts++
					if !slices.Equal(got, want) {
						t.Errorf("%s of P%d op %d carries clock %v, the access was stamped %v", who, proc, seq, got, want)
					}
				}
				if watcher == "trace" {
					for _, ev := range res.Trace.Events {
						if ev.Kind == trace.EvPut {
							checkClock("trace event", ev.Proc, ev.Seq, ev.Clock)
						}
					}
				} else {
					for _, a := range obs.kept {
						check("observer's access", a)
						checkClock("observer's access", a.Proc, a.Seq, a.Clock)
					}
				}
				if puts != len(clocks) {
					t.Errorf("%s holds %d puts, the programs issued %d", watcher, puts, len(clocks))
				}
			})
		}
	}
}

// TestBarrierMergedClockIsolated checks the one merged clock every release
// of an epoch shares: participants are released at different instants, and
// each ticks (a run of puts) the moment it resumes. What a participant
// absorbed must be exactly every other participant's clock *at arrival* — a
// tick made after release reaching somebody's absorb means the merged clock
// (or an arrival still aliasing a live clock) was written while shared. At
// K=2 the releases are absorbed on two shards concurrently; CI runs this
// under -race with two threads.
func TestBarrierMergedClockIsolated(t *testing.T) {
	const n, rounds = 8, 6
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			c := newCluster(t, n, core.NewExactVWDetector(), func(cfg *Config) { cfg.Kernels = k })
			for i := 0; i < n; i++ {
				c.MustAlloc(fmt.Sprintf("own%d", i), i, 1)
			}
			// arrived[r][i] is process i's own component when it entered
			// round r's barrier; absorbed[r][i] its whole clock when it left.
			var arrived [rounds][n]uint64
			var absorbed [rounds][n]vclock.VC
			res, err := c.Run(func(p *Proc) error {
				own := fmt.Sprintf("own%d", p.ID())
				for r := 0; r < rounds; r++ {
					for i := 0; i <= (p.ID()+r)%n; i++ {
						p.MustPut(own, 0, memory.Word(i))
					}
					arrived[r][p.ID()] = p.Clock()[p.ID()] + 1 // Barrier ticks first
					p.Barrier()
					absorbed[r][p.ID()] = p.Clock()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if ferr := res.FirstError(); ferr != nil {
				t.Fatal(ferr)
			}
			if res.Kernels != k {
				t.Fatalf("ran on %d kernels (%s), want %d", res.Kernels, res.KernelNote, k)
			}
			for r := 0; r < rounds; r++ {
				for i := 0; i < n; i++ {
					if got, want := absorbed[r][i], arrived[r][:]; !slices.Equal(got, want) {
						t.Errorf("round %d: P%d left the barrier with %v, the participants arrived with %v", r, i, got, want)
					}
				}
			}
			for i := 0; i < c.System().PoolShards(); i++ {
				if got := c.System().PoolBalanceShard(i); got != (rdma.PoolBalance{}) {
					t.Errorf("shard %d pool balance = %+v, want all zero", i, got)
				}
			}
		})
	}
}

// TestAliasLiteralSnapshots pins the protocol split in newAccess: the
// piggyback protocol's access aliases the process's clock and held-lock
// list, the literal protocol — whose one-way clock messages outlive the
// operation — snapshots both.
func TestAliasLiteralSnapshots(t *testing.T) {
	for _, proto := range []rdma.Protocol{rdma.ProtocolPiggyback, rdma.ProtocolLiteral} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newCluster(t, 2, core.NewVWDetector(), func(cfg *Config) { cfg.RDMA.Protocol = proto })
			c.MustAlloc("x", 1, 1)
			c.MustAlloc("l", 1, 1)
			res, err := c.RunEach([]Program{func(p *Proc) error {
				p.MustLock("l")
				acc := p.newAccess(core.Write)
				aliasClock := &acc.Clock[0] == &p.clock.V[0]
				aliasLocks := &acc.Locks[0] == &p.held[0]
				if want := proto == rdma.ProtocolPiggyback; aliasClock != want || aliasLocks != want {
					return fmt.Errorf("access aliases clock: %v, held locks: %v; want both %v", aliasClock, aliasLocks, want)
				}
				if !slices.Equal(acc.Clock, p.clock.V) || !slices.Equal(acc.Locks, p.held) {
					return fmt.Errorf("access stamped %v %v, process has %v %v", acc.Clock, acc.Locks, p.clock.V, p.held)
				}
				p.MustPut("x", 0, 1) // and the protocol still runs with locks held
				p.MustUnlock("l")
				return nil
			}, nil})
			if err != nil {
				t.Fatal(err)
			}
			if ferr := res.FirstError(); ferr != nil {
				t.Fatal(ferr)
			}
		})
	}
}

// TestAliasLateRetransmissionKeepsItsPayload covers the one request that can
// outlive its operation. With the reply link cut and a timeout far below the
// round trip, each put gives up while its retransmissions are still in
// flight, and the home serves them after the process has moved on — when the
// NIC's write buffer, which a fault-free request aliases, holds a later put's
// word. Every word must land where its own put aimed it.
func TestAliasLateRetransmissionKeepsItsPayload(t *testing.T) {
	const words = 6
	c := newCluster(t, 2, core.NewExactVWDetector(), func(cfg *Config) {
		cfg.Faults = &fault.Schedule{Timeout: 1, RetryBase: 1, RetryBudget: 2,
			Events: []fault.Event{{Op: fault.CutLink, Src: 1, Dst: 0}}}
	})
	c.MustAlloc("x", 1, words)
	res, err := c.RunEach([]Program{func(p *Proc) error {
		for i := 0; i < words; i++ {
			if err := p.Put("x", i, memory.Word(100+i)); !errors.Is(err, rdma.ErrUnreachable) {
				return fmt.Errorf("put %d: %v, want unreachable", i, err)
			}
		}
		return nil
	}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if ferr := res.FirstError(); ferr != nil {
		t.Fatal(ferr)
	}
	got := res.Memory[1][:words] // x is node 1's only area
	for i, w := range got {
		if w != memory.Word(100+i) {
			t.Fatalf("x = %v: word %d was written by another put's retransmission", got, i)
		}
	}
}
