package dsmrace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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

// statsHash condenses a network.Stats — every per-kind message and byte
// count — into 16 hex digits.
func statsHash(s network.Stats) string {
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, s); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// cpsScheduleRun is one pinned row of the CPS schedule matrix: the full
// fingerprint of one variant at one seed, network.Stats folded into its
// totals plus a hash over the per-kind counts.
type cpsScheduleRun struct {
	variant    string
	seed       int64
	races      int
	dur        int64
	events     uint64
	msgs       uint64
	bytes      uint64
	stats      string
	reportHash string
}

// cpsScheduleVariants are the adversarial schedules of the matrix: jitter,
// the literal protocol, write-invalidate, word granularity and both absorb
// edges off.
var cpsScheduleVariants = []struct {
	name string
	mut  func(*rdma.Config)
	jit  float64
}{
	{name: "piggyback", mut: func(c *rdma.Config) {}},
	{name: "piggyback-jitter", mut: func(c *rdma.Config) {}, jit: 0.3},
	{name: "literal", mut: func(c *rdma.Config) { c.Protocol = rdma.ProtocolLiteral }},
	{name: "literal-jitter", mut: func(c *rdma.Config) { c.Protocol = rdma.ProtocolLiteral }, jit: 0.3},
	{name: "write-invalidate", mut: func(c *rdma.Config) { c.Coherence = coherence.NewWriteInvalidate() }},
	{name: "compress-word", mut: func(c *rdma.Config) { c.Granularity = rdma.GranularityWord }},
	{name: "no-absorb", mut: func(c *rdma.Config) {
		c.AbsorbOnGetReply = false
		c.AbsorbOnPutAck = false
	}},
}

// cpsScheduleRuns were captured when the continuation-passing initiator
// still had a parked twin and a differential proved the two bit-identical
// on exactly these schedules; they now pin the one remaining path.
var cpsScheduleRuns = []cpsScheduleRun{
	{"piggyback", 1, 199, 174810, 1242, 624, 47784, "43d7f721cb5513ea", "9d007fe6bf802d00"},
	{"piggyback", 7, 205, 165956, 1242, 624, 48176, "1a7e8c7eb46994f2", "bf071f507b4bf200"},
	{"piggyback", 23, 215, 168928, 1242, 624, 48696, "fa0efdd7a23eb6c5", "d209244969bbda52"},
	{"piggyback-jitter", 1, 207, 170598, 1242, 624, 48312, "fc0e02cc0ec8c42b", "a771df19d39b472e"},
	{"piggyback-jitter", 7, 204, 161060, 1242, 624, 48000, "f8d7121c6100128f", "a62bfd5227538d48"},
	{"piggyback-jitter", 23, 206, 160575, 1242, 624, 48272, "531146a4c699abdf", "55dd953d26f2b4bb"},
	{"literal", 1, 232, 1005582, 5238, 3546, 226872, "d4df342ef4a45a4e", "c92172789c7bf94c"},
	{"literal", 7, 242, 947554, 5306, 3597, 231904, "8afe9dd3cc00342e", "1339131eda5c9c79"},
	{"literal", 23, 246, 1079678, 5286, 3582, 230424, "f8f425dbdf118b53", "22285e4cc9a2be28"},
	{"literal-jitter", 1, 243, 1052748, 5278, 3576, 229832, "6defd034715a8bc0", "5d2fd94d138b3928"},
	{"literal-jitter", 7, 246, 1017290, 5246, 3552, 227464, "b4252ed6fe9d3199", "53008b7eb989b8ee"},
	{"literal-jitter", 23, 249, 979056, 5302, 3594, 231608, "02d25a7ac6766ffd", "79d1acc753c2ea6d"},
	{"write-invalidate", 1, 206, 205234, 1313, 730, 54308, "c09eeb194801671d", "fb5f792522bbf837"},
	{"write-invalidate", 7, 200, 200514, 1276, 694, 52664, "8b0eec09460a3f2c", "0b226ebad5e721c1"},
	{"write-invalidate", 23, 207, 224746, 1299, 714, 53636, "97ef086a3878b392", "7733d946efbad665"},
	{"compress-word", 1, 123, 168374, 1242, 624, 50176, "b0eed0471672278c", "2eb9b0318b5aab27"},
	{"compress-word", 7, 125, 171918, 1242, 624, 50920, "514a5e77e2976f73", "f7db6a618d852204"},
	{"compress-word", 23, 151, 175880, 1242, 624, 51184, "9e17c49913f18f8f", "c3c5c237e8caa79d"},
	{"no-absorb", 1, 259, 168112, 1242, 624, 46872, "c882951d1d655d65", "0142a39894aecacb"},
	{"no-absorb", 7, 265, 168144, 1242, 624, 47080, "990602ff8f35c022", "0ccf71ed0cab2007"},
	{"no-absorb", 23, 274, 165424, 1242, 624, 47512, "dc55748ace0b7bb7", "7b4957559ac5194e"},
}

// TestCPSScheduleGolden runs the continuation-passing initiator over the
// schedule matrix (vw-exact; 6 procs, 8 areas of 4 words, 50 ops/proc, 40%
// reads, a barrier every 20 ops) at seeds {1, 7, 23} and requires every
// fingerprint — race reports, virtual duration, event count and per-kind
// message totals — to match its pinned row.
func TestCPSScheduleGolden(t *testing.T) {
	for _, v := range cpsScheduleVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			var rows int
			for _, want := range cpsScheduleRuns {
				if want.variant != v.name {
					continue
				}
				rows++
				d, err := NewDetector("vw-exact")
				if err != nil {
					t.Fatal(err)
				}
				cfg := rdma.DefaultConfig(d, nil)
				v.mut(&cfg)
				var lat network.LatencyModel
				if v.jit > 0 {
					lat = network.Jitter{Base: network.DefaultIB(), Frac: v.jit}
				}
				w := workload.Random(workload.RandomSpec{
					Procs: 6, Areas: 8, AreaWords: 4, OpsPerProc: 50,
					ReadPercent: 40, BarrierEvery: 20,
				})
				res, err := w.Run(dsm.Config{Seed: want.seed, Latency: lat, RDMA: cfg})
				if err != nil {
					t.Fatal(err)
				}
				got := cpsScheduleRun{
					variant: v.name, seed: want.seed, races: res.RaceCount,
					dur: int64(res.Duration), events: res.Events,
					msgs: res.NetStats.TotalMsgs, bytes: res.NetStats.TotalBytes,
					stats: statsHash(res.NetStats), reportHash: reportHash(res),
				}
				if got != want {
					t.Errorf("seed %d:\n got  %+v\n want %+v", want.seed, got, want)
				}
			}
			if rows != 3 {
				t.Fatalf("%d pinned rows, want 3 (seeds 1, 7, 23)", rows)
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
