package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap implementation the wheel replaced, kept as
// the ordering oracle for the differential tests.
type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// wheelDeltas mixes every placement class: level-0 neighbours, higher
// levels, level/window boundaries, and (rarely) beyond-horizon overflow.
func wheelDelta(r *rand.Rand) Time {
	switch r.Intn(10) {
	case 0, 1, 2, 3:
		return Time(1 + r.Intn(63)) // level 0
	case 4, 5:
		return Time(64 + r.Intn(4032)) // level 1
	case 6:
		return Time(4096 + r.Intn(1<<18)) // levels 2-3
	case 7:
		return Time(1) << uint(6+6*r.Intn(4)) // exact level boundaries
	case 8:
		return Time(1<<18 + r.Intn(1<<24)) // deep levels
	default:
		return wheelHorizon + Time(r.Intn(1000)) // overflow list
	}
}

// TestWheelMatchesHeapOrder drives identical push/pop schedules through the
// timing wheel and the reference heap and requires the exact same (at, seq)
// pop order — the byte-identity contract every golden fingerprint rests on.
func TestWheelMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var w wheel
		var h refHeap
		var now Time
		var seq uint64
		pending := 0
		for step := 0; step < 4000; step++ {
			if pending == 0 || r.Intn(3) > 0 {
				// Push a burst at or after the current instant — exactly
				// the kernel's contract (t > now goes to the wheel).
				for burst := 1 + r.Intn(3); burst > 0; burst-- {
					at := now + wheelDelta(r)
					seq++
					w.push(&event{at: at, seq: seq})
					heap.Push(&h, &event{at: at, seq: seq})
					pending++
				}
				continue
			}
			// Occasionally exercise the bounded peek the kernel uses when
			// comparing against its now-queue: it must find the event iff
			// the true minimum is within the bound, and must stay safe to
			// push behind afterwards.
			if r.Intn(4) == 0 {
				bound := now + Time(r.Intn(100))
				got := w.peekWithin(bound)
				want := h[0]
				if want.at <= bound {
					if got == nil || got.at != want.at || got.seq != want.seq {
						t.Fatalf("seed %d step %d: peekWithin(%d) = %+v, want (%d,%d)",
							seed, step, bound, got, want.at, want.seq)
					}
				} else if got != nil {
					t.Fatalf("seed %d step %d: peekWithin(%d) = (%d,%d), want nil (min at %d)",
						seed, step, bound, got.at, got.seq, want.at)
				}
			}
			if w.peekWithin(timeMax) == nil {
				t.Fatalf("seed %d step %d: wheel empty with %d pending", seed, step, pending)
			}
			got := w.take()
			want := heap.Pop(&h).(*event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d step %d: wheel popped (%d,%d), heap says (%d,%d)",
					seed, step, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
			pending--
		}
		// Drain completely.
		for pending > 0 {
			if w.peekWithin(timeMax) == nil {
				t.Fatalf("seed %d: wheel empty with %d pending at drain", seed, pending)
			}
			got := w.take()
			want := heap.Pop(&h).(*event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: wheel popped (%d,%d), heap says (%d,%d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
			pending--
		}
		if w.len() != 0 {
			t.Fatalf("seed %d: wheel reports %d events after drain", seed, w.len())
		}
	}
}

// TestWheelOverflowBeatsWindowEvents pins the fast-path/overflow interplay:
// an overflow event that becomes due inside the cursor's current level-0
// window must pop before any later in-window event — it was pushed a full
// horizon earlier and carries the smaller seq. (Found in review: the fast
// path used to serve the window without consulting the overflow list, so
// the overflow event was skipped and virtual time ran backward.)
func TestWheelOverflowBeatsWindowEvents(t *testing.T) {
	var w wheel
	T := wheelHorizon + 10              // same 64ns window as T-2 and T+5
	w.push(&event{at: T, seq: 1})       // beyond horizon: overflow list
	w.push(&event{at: T - 100, seq: 2}) // in-wheel, pops first
	if got := w.peekWithin(timeMax); got == nil || got.seq != 2 {
		t.Fatalf("first peek = %+v, want seq 2", got)
	}
	w.take()
	w.push(&event{at: T - 2, seq: 3})
	w.push(&event{at: T + 5, seq: 4})
	want := []struct {
		at  Time
		seq uint64
	}{{T - 2, 3}, {T, 1}, {T + 5, 4}}
	for _, wv := range want {
		e := w.peekWithin(timeMax)
		if e == nil {
			t.Fatalf("wheel empty, want (%d,%d)", wv.at, wv.seq)
		}
		got := w.take()
		if got.at != wv.at || got.seq != wv.seq {
			t.Fatalf("popped (%d,%d), want (%d,%d)", got.at, got.seq, wv.at, wv.seq)
		}
	}
	if w.len() != 0 {
		t.Fatalf("wheel reports %d events after drain", w.len())
	}
}

// TestWheelSameInstantSeqOrder floods one instant from several placements
// (direct pushes and cascades landing in the same level-0 slot) and checks
// pops come out in strict seq order.
func TestWheelSameInstantSeqOrder(t *testing.T) {
	var w wheel
	var seq uint64
	const at = Time(1 << 13) // lands via cascades from level 2
	// Far-filed events first (small seq, reach level 0 late via cascade).
	for i := 0; i < 5; i++ {
		seq++
		w.push(&event{at: at, seq: seq})
	}
	// Advance the cursor near the instant, then push directly into level 0.
	w.cur = at - 3
	for i := 0; i < 5; i++ {
		seq++
		w.push(&event{at: at, seq: seq})
	}
	for wantSeq := uint64(1); wantSeq <= seq; wantSeq++ {
		e := w.peekWithin(timeMax)
		if e == nil {
			t.Fatalf("wheel empty before seq %d", wantSeq)
		}
		got := w.take()
		if got.at != at || got.seq != wantSeq {
			t.Fatalf("popped (%d,%d), want (%d,%d)", got.at, got.seq, at, wantSeq)
		}
	}
}

// TestWheelInstantDrainMatchesHeap files k events at one instant from every
// placement the kernel produces — far-filed ones that reach level 0 by
// cascade, direct level-0 pushes, the two interleaved so the slot's arrival
// order is far from seq order — plus neighbours just before and after, and
// pushes more events at the same instant *while it drains* (smaller and
// larger seqs than what is left). The wheel orders a slot once when its
// drain starts and keeps it ordered, and now and then is told to forget the
// order mid-drain; the pop sequence must still be exactly the reference
// heap's.
func TestWheelInstantDrainMatchesHeap(t *testing.T) {
	for _, k := range []int{1, 2, 64, 1000} {
		var w wheel
		var h refHeap
		r := rand.New(rand.NewSource(int64(k)))
		// Seqs are drawn from a shuffled pool so arrival order and seq order
		// disagree; the first 2k+4 go to the initial filing, the rest to the
		// mid-drain pushes.
		seqs := r.Perm(4*k + 8)
		next := 0
		file := func(at Time) {
			e := &event{at: at, seq: uint64(seqs[next] + 1)}
			next++
			w.push(e)
			heap.Push(&h, &event{at: e.at, seq: e.seq})
		}
		const at = Time(3<<12 + 17) // reached through a level-2 cascade
		for i := 0; i < k; i++ {
			file(at) // far-filed: parked in a coarse bucket
		}
		file(at - 1)
		file(at + 1)
		// Bring the cursor next to the instant (popping the neighbour before
		// it), then file directly into the level-0 slot the cascade fills.
		pop := func(where string) *event {
			t.Helper()
			got := w.peekWithin(timeMax)
			if got == nil {
				t.Fatalf("k=%d %s: wheel empty with %d pending", k, where, h.Len())
			}
			got = w.take()
			want := heap.Pop(&h).(*event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("k=%d %s: wheel popped (%d,%d), heap says (%d,%d)", k, where, got.at, got.seq, want.at, want.seq)
			}
			return got
		}
		pop("approach")
		for i := 0; i < k; i++ {
			file(at)
		}
		file(at + 1)
		file(at + 64) // one window ahead: same level-0 index must not mix in
		// Drain the instant, pushing into it as it drains.
		for drained := 0; h.Len() > 0; drained++ {
			e := pop("drain")
			if e.at == at && drained%3 == 0 && next < len(seqs) {
				file(at)
			}
			if drained%7 == 3 {
				// A half-drained slot still enumerates exactly what is left,
				// and survives losing its order (the window barrier's replay).
				resident := 0
				w.each(func(*event) { resident++ })
				if resident != h.Len() {
					t.Fatalf("k=%d: each visits %d events mid-drain, %d are pending", k, resident, h.Len())
				}
				w.invalidatePeek()
			}
		}
		if w.len() != 0 {
			t.Fatalf("k=%d: wheel reports %d events after drain", k, w.len())
		}
	}
}
