package dsmrace

import (
	"strings"
	"testing"

	"dsmrace/internal/dsm"
	"dsmrace/internal/rdma"
	"dsmrace/internal/workload"
)

// TestLiteralProtocolKeepsFixedClockFormat pins the literal protocol's
// traffic, kind by kind, to what the fixed 2+8n clock format produced
// before the piggyback protocol moved to sparse clocks: the literal
// protocol reproduces the paper's message sequence and sizes, so every
// clock it ships — clock reads and writes, lock grants, unlocks, barrier
// arrivals and releases — stays fixed. With detection off the run is
// uninstrumented and ships no clock at all, so its lock grants, unlocks and
// barrier messages are header-only.
func TestLiteralProtocolKeepsFixedClockFormat(t *testing.T) {
	for _, tc := range []struct{ det, stats string }{
		{"vw", "msgs=2388 bytes=129172 [barrier:32(2112B) clock.read.resp:412(41200B) clock.read:412(13184B) clock.write:252(19760B) get.reply:68(2720B) get.req:68(2176B) lock.grant:320(15476B) lock.req:320(10240B) put.ack:92(2944B) put.req:92(3680B) unlock:320(15680B)]"},
		{"off", "msgs=832 bytes=27904 [barrier:32(1024B) get.reply:74(2960B) get.req:74(2368B) lock.grant:160(5120B) lock.req:160(5120B) put.ack:86(2752B) put.req:86(3440B) unlock:160(5120B)]"},
	} {
		d, err := NewDetector(tc.det)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rdma.DefaultConfig(d, nil)
		cfg.Protocol = rdma.ProtocolLiteral
		w := workload.Random(workload.RandomSpec{
			Procs: 4, Areas: 6, AreaWords: 4, OpsPerProc: 40, ReadPercent: 40,
			BarrierEvery: 10, LockDiscipline: true,
		})
		res, err := w.Run(dsm.Config{Seed: 3, RDMA: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.NetStats.String(); got != tc.stats {
			t.Errorf("%s: literal traffic moved:\n got  %s\n want %s", tc.det, got, tc.stats)
		}
	}
}

func TestLiteralRejectsNonClockDetectors(t *testing.T) {
	for _, det := range []string{"epoch", "lockset"} {
		_, err := Run(RunSpec{
			Procs: 2, Detector: det, Protocol: "literal",
			Setup:   func(c *Cluster) error { return c.Alloc("x", 0, 1) },
			Program: func(p *Proc) error { return nil },
		})
		if err == nil || !strings.Contains(err.Error(), "clock-based") {
			t.Errorf("%s+literal: err = %v, want clock-based rejection", det, err)
		}
	}
}
