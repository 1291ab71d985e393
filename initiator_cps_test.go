package dsmrace

import (
	"runtime"
	"testing"

	"dsmrace/internal/coherence"
	"dsmrace/internal/dsm"
	"dsmrace/internal/network"
	"dsmrace/internal/rdma"
	"dsmrace/internal/workload"
)

// fingerprint condenses everything observable about a run.
type runFingerprint struct {
	races  int
	dur    int64
	events uint64
	stats  network.Stats
	hash   string
}

func fingerprintOf(res *Result) runFingerprint {
	return runFingerprint{
		races:  res.RaceCount,
		dur:    int64(res.Duration),
		events: res.Events,
		stats:  res.NetStats,
		hash:   reportHash(res),
	}
}

// TestInitiatorPathDifferential runs the same adversarial schedules under
// the continuation-passing initiator path and the legacy parked path
// (Config.LegacyInitiator) and requires bit-identical fingerprints — race
// reports, virtual durations, *event counts* and per-kind message totals.
// The CPS conversion relocates work between goroutines and event
// continuations but must not move a single event: every intermediate hop's
// continuation occupies exactly the (time, seq) slot the parked path's
// process wakeup occupied.
func TestInitiatorPathDifferential(t *testing.T) {
	type variant struct {
		name string
		mut  func(*rdma.Config)
		jit  float64
	}
	variants := []variant{
		{name: "piggyback", mut: func(c *rdma.Config) {}},
		{name: "piggyback-jitter", mut: func(c *rdma.Config) {}, jit: 0.3},
		{name: "literal", mut: func(c *rdma.Config) { c.Protocol = rdma.ProtocolLiteral }},
		{name: "literal-jitter", mut: func(c *rdma.Config) { c.Protocol = rdma.ProtocolLiteral }, jit: 0.3},
		{name: "write-invalidate", mut: func(c *rdma.Config) {
			c.Coherence = mustCoherenceProtocol(t, "write-invalidate")
		}},
		{name: "compress-word", mut: func(c *rdma.Config) {
			c.Granularity = rdma.GranularityWord
		}},
		{name: "no-absorb", mut: func(c *rdma.Config) {
			c.AbsorbOnGetReply = false
			c.AbsorbOnPutAck = false
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 23} {
				run := func(legacy bool) runFingerprint {
					d, err := NewDetector("vw-exact")
					if err != nil {
						t.Fatal(err)
					}
					cfg := rdma.DefaultConfig(d, nil)
					v.mut(&cfg)
					cfg.LegacyInitiator = legacy
					var lat network.LatencyModel
					if v.jit > 0 {
						lat = network.Jitter{Base: network.DefaultIB(), Frac: v.jit}
					}
					w := workload.Random(workload.RandomSpec{
						Procs: 6, Areas: 8, AreaWords: 4, OpsPerProc: 50,
						ReadPercent: 40, BarrierEvery: 20,
					})
					res, err := w.Run(dsm.Config{Seed: seed, Latency: lat, RDMA: cfg})
					if err != nil {
						t.Fatal(err)
					}
					return fingerprintOf(res)
				}
				cps, legacy := run(false), run(true)
				if cps != legacy {
					t.Errorf("seed %d: CPS and parked paths diverged:\n cps    %+v\n parked %+v",
						seed, cps, legacy)
				}
			}
		})
	}
}

// TestGoroutineFlatness pins the continuation-passing property the tentpole
// is named for: remote operations schedule no goroutines. Across 10k remote
// operations per process the process count of the whole program stays flat —
// one goroutine per simulated process for the lifetime of the run, zero
// per-operation hand-off goroutines.
func TestGoroutineFlatness(t *testing.T) {
	const procs, ops, samples = 4, 10_000, 8
	base := runtime.NumGoroutine()
	d, err := NewDetector("vw-exact")
	if err != nil {
		t.Fatal(err)
	}
	c, err := dsm.New(dsm.Config{Procs: procs, Seed: 5, RDMA: rdma.DefaultConfig(d, nil)})
	if err != nil {
		t.Fatal(err)
	}
	c.MustAlloc("x", 0, 8)
	var minG, maxG int
	res, err := c.Run(func(p *dsm.Proc) error {
		for i := 0; i < ops; i++ {
			if i%2 == 0 {
				if err := p.Put("x", p.ID()%8, Word(i)); err != nil {
					return err
				}
			} else if _, err := p.Get("x", 0, 4); err != nil {
				return err
			}
			if p.ID() == 0 && i%(ops/samples) == 0 {
				g := runtime.NumGoroutine()
				if minG == 0 || g < minG {
					minG = g
				}
				if g > maxG {
					maxG = g
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ferr := res.FirstError(); ferr != nil {
		t.Fatal(ferr)
	}
	if minG == 0 {
		t.Fatal("no goroutine samples taken")
	}
	// Flat means flat: the simulation itself may not add or drop a single
	// goroutine between samples (the runtime's own background goroutines
	// get a tolerance of the process count).
	if maxG-minG > procs {
		t.Errorf("goroutine count varied %d..%d across %d remote ops/proc; remote operations must not spawn or retire goroutines",
			minG, maxG, ops)
	}
	if maxG > base+2*procs+4 {
		t.Errorf("goroutine high-water %d vs %d before the run: more than one goroutine per process in flight",
			maxG, base)
	}
}

func mustCoherenceProtocol(t *testing.T, name string) coherence.Protocol {
	t.Helper()
	p, err := coherence.FromName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
