package core

import (
	"fmt"
	"testing"

	"dsmrace/internal/vclock"
)

// FuzzCollectorInternEquivalence feeds one fuzzer-chosen report stream to an
// interning collector and to a NoIntern one. The reports must render the
// same one by one, and the interning collector's InternStats must equal what
// a naive map[string] oracle over the same clocks counts.
//
// The stream is decoded from raw: the first byte picks the clock length
// (0..8, so empty clocks occur), then every report takes one control byte —
// bit 0 a Prior, bit 1 a nil StoredClock (as epoch and lockset report),
// bit 2 Prior.Locks, bit 3 a Reports() call before the signal — and one byte
// per clock naming the value that fills it, so clocks repeat across reports
// and fields and a long stream still outgrows the first table.
func FuzzCollectorInternEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{3, 1, 1, 2, 3, 9, 1, 2, 3, 0, 7, 7, 7, 2, 1, 1, 1})
	f.Add([]byte{8, 5, 0, 1, 2, 13, 2, 1, 0, 15, 3, 3, 3, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		next := func() byte {
			if len(raw) == 0 {
				return 0
			}
			b := raw[0]
			raw = raw[1:]
			return b
		}
		n := int(next()) % 9
		// Clocks are built fresh per field: the collector must dedup by
		// value, never by the identity of what it was handed.
		clock := func() vclock.VC {
			c := make(vclock.VC, n)
			v := uint64(next())
			for i := range c {
				c[i] = v<<40 | v*uint64(i+1)
			}
			return c
		}

		var oracle struct {
			InternStats
			seen map[string]bool
		}
		oracle.seen = map[string]bool{}
		count := func(c vclock.VC) {
			if c == nil {
				return
			}
			oracle.Refs++
			oracle.NaiveBytes += 8 * len(c)
			if key := fmt.Sprint(len(c), []uint64(c)); !oracle.seen[key] {
				oracle.seen[key] = true
				oracle.Unique++
				oracle.Bytes += 8 * len(c)
			}
		}

		interned, plain := &Collector{}, &Collector{NoIntern: true}
		for seq := uint64(0); len(raw) > 0; seq++ {
			ctl := next()
			r := Report{
				Detector: "fuzz",
				Area:     3,
				Current:  Access{Proc: int(seq % 5), Seq: seq, Kind: AccessKind(seq % 2), Clock: clock()},
			}
			if ctl&2 == 0 {
				r.StoredClock = clock()
			}
			if ctl&1 != 0 {
				r.Prior = &Access{Proc: int(seq % 3), Seq: seq / 2, Kind: Write, Clock: clock()}
				if ctl&4 != 0 {
					r.Prior.Locks = []int{int(ctl)}
				}
			}
			if ctl&8 != 0 {
				interned.Reports()
			}
			count(r.StoredClock)
			count(r.Current.Clock)
			if r.Prior != nil {
				count(r.Prior.Clock)
			}
			interned.Signal(r)
			plain.Signal(r)
		}

		a, b := interned.Reports(), plain.Reports()
		if len(a) != len(b) || len(a) != interned.Total() {
			t.Fatalf("stored %d interned, %d plain, %d signalled", len(a), len(b), interned.Total())
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Fatalf("report %d differs:\n%s\n%s", i, a[i], b[i])
			}
		}
		if got := interned.InternStats(); got != oracle.InternStats {
			t.Fatalf("InternStats = %+v, oracle counts %+v", got, oracle.InternStats)
		}
	})
}
