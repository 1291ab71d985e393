package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	if err := k.Run(); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if k.Now() != 0 {
		t.Fatalf("time advanced with no events: %v", k.Now())
	}
}

func TestEventOrderingByTime(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("order = %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %v, want 30", k.Now())
	}
}

func TestEqualTimeTieBreakBySequence(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestNegativeAndPastSchedulesClamp(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	ran := false
	k.Schedule(-5, func() { ran = true })
	k.At(-100, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || k.Now() != 0 {
		t.Fatalf("clamping failed: ran=%v now=%v", ran, k.Now())
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var wake Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		wake = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 2*Microsecond {
		t.Fatalf("woke at %v, want 2us", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func(seed int64) string {
		k := NewKernel(Config{Seed: seed})
		var log []string
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("p%d", i)
			k.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(k.Rand().Intn(100)))
					log = append(log, fmt.Sprintf("%s@%d", p.Name, j))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ",")
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := run(43)
	if a == c {
		t.Log("different seeds happened to agree (allowed but unlikely)")
	}
}

func TestProcPanicBecomesError(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	k.Spawn("boom", func(p *Proc) { panic("kapow") })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kapow") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	q := NewQueue[int](k, "never")
	k.Spawn("waiter", func(p *Proc) { q.Pop(p) })
	err := k.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(d.Blocked) != 1 || !strings.Contains(d.Blocked[0], "waiter") {
		t.Fatalf("blocked = %v", d.Blocked)
	}
}

func TestMaxEventsLimit(t *testing.T) {
	k := NewKernel(Config{Seed: 1, MaxEvents: 10})
	var tick func()
	tick = func() { k.Schedule(1, tick) }
	k.Schedule(0, tick)
	err := k.Run()
	var l *LimitError
	if !errors.As(err, &l) || l.What != "event" {
		t.Fatalf("err = %v, want event LimitError", err)
	}
}

func TestMaxTimeLimit(t *testing.T) {
	k := NewKernel(Config{Seed: 1, MaxTime: 5})
	k.Schedule(10, func() {})
	err := k.Run()
	var l *LimitError
	if !errors.As(err, &l) || l.What != "time" {
		t.Fatalf("err = %v, want time LimitError", err)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	n := 0
	k.Schedule(1, func() { n++; k.Stop() })
	k.Schedule(2, func() { n++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("events after Stop ran: n=%d", n)
	}
}

func TestQueuePushPop(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	q := NewQueue[int](k, "q")
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			q.Push(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueTryPop(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	q := NewQueue[string](k, "q")
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty succeeded")
	}
	q.Push("a")
	q.Push("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok := q.TryPop(); !ok || v != "a" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	q := NewQueue[int](k, "q")
	var order []string
	mk := func(name string) {
		k.Spawn(name, func(p *Proc) {
			v := q.Pop(p)
			order = append(order, fmt.Sprintf("%s=%d", name, v))
		})
	}
	mk("w0")
	mk("w1")
	k.Spawn("feeder", func(p *Proc) {
		p.Sleep(5)
		q.Push(100)
		p.Sleep(5)
		q.Push(200)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "w0=100,w1=200" {
		t.Fatalf("order = %v", order)
	}
}

func TestSemaphore(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	s := NewSemaphore(k, "s", 1)
	var maxIn, in int
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			s.Acquire(p)
			in++
			if in > maxIn {
				maxIn = in
			}
			p.Sleep(10)
			in--
			s.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxIn != 1 {
		t.Fatalf("mutual exclusion violated: max concurrent = %d", maxIn)
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	s := NewSemaphore(k, "s", 1)
	if !s.TryAcquire() {
		t.Fatal("first TryAcquire must succeed")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire must fail")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire after Release must succeed")
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var wg WaitGroup
	wg.Add(3)
	done := false
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		done = true
	})
	for i := 0; i < 3; i++ {
		d := Time(10 * (i + 1))
		k.Schedule(d, wg.Done)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("waiter never released")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var wg WaitGroup
	wg.Done()
}

func TestSpawnFromInsideSimulation(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var child Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(50)
		k.Spawn("child", func(c *Proc) {
			child = c.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if child != 50 {
		t.Fatalf("child started at %v, want 50", child)
	}
}

func TestDeterminismProperty(t *testing.T) {
	// Property: for any seed, two runs of a randomized multi-process program
	// produce identical event counts and final times.
	f := func(seed int64) bool {
		run := func() (uint64, Time) {
			k := NewKernel(Config{Seed: seed})
			q := NewQueue[int](k, "q")
			k.Spawn("prod", func(p *Proc) {
				for i := 0; i < 20; i++ {
					p.Sleep(Time(k.Rand().Intn(50)))
					q.Push(i)
				}
			})
			k.Spawn("cons", func(p *Proc) {
				for i := 0; i < 20; i++ {
					q.Pop(p)
					p.Sleep(Time(k.Rand().Intn(50)))
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			return k.Events(), k.Now()
		}
		e1, t1 := run()
		e2, t2 := run()
		return e1 == e2 && t1 == t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := (2500 * Nanosecond).String(); got != "2.500us" {
		t.Fatalf("Time.String = %q", got)
	}
}

func TestYield(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var log []string
	k.Spawn("a", func(p *Proc) {
		log = append(log, "a1")
		p.Yield()
		log = append(log, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		log = append(log, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(log, ",") != "a1,b1,a2" {
		t.Fatalf("log = %v", log)
	}
}

// TestDeferMatchesReadySlot pins the contract the RDMA continuation chain
// depends on: a Defer'd continuation runs in exactly the (time, seq) slot a
// Ready() wakeup pushed at the same moment would, interleaving identically
// with other same-instant events.
func TestDeferMatchesReadySlot(t *testing.T) {
	order := func(useDefer bool) string {
		k := NewKernel(Config{Seed: 1})
		var log []string
		done := false
		p := k.Spawn("p", func(p *Proc) {
			p.Await(&done, "wait")
			log = append(log, "resume")
		})
		k.Schedule(10, func() {
			log = append(log, "a")
			if useDefer {
				k.Defer(func() { log = append(log, "resume") })
			} else {
				done = true
				p.Ready()
			}
			k.Defer(func() { log = append(log, "b") })
		})
		if useDefer {
			// Nothing resumes p in this variant; release it so the run ends.
			k.Schedule(20, func() { done = true; p.Ready() })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if useDefer {
			return strings.Join(log[:3], ",")
		}
		return strings.Join(log, ",")
	}
	ready, deferred := order(false), order(true)
	if ready != deferred {
		t.Fatalf("Defer slot differs from Ready slot: %q vs %q", ready, deferred)
	}
	if ready != "a,resume,b" {
		t.Fatalf("order = %q, want a,resume,b", ready)
	}
}

// TestAwaitIgnoresStrayWakeups: a process joined on a condition re-parks on
// wakeups that did not set it.
func TestAwaitIgnoresStrayWakeups(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	done := false
	woke := false
	p := k.Spawn("p", func(p *Proc) {
		p.Await(&done, "join")
		woke = true
	})
	k.Schedule(5, p.Ready) // stray: condition still false
	k.Schedule(9, func() {
		if woke {
			t.Error("stray wakeup released the join")
		}
	})
	k.Schedule(10, func() { done = true; p.Ready() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("join never released")
	}
}

// TestRelabelNamesStuckPhase: an event-driven operation that advances while
// its process stays parked updates the deadlock report's reason.
func TestRelabelNamesStuckPhase(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	done := false
	p := k.Spawn("p", func(p *Proc) {
		p.Await(&done, "phase 1")
	})
	k.Schedule(10, func() { p.Relabel("phase 2") })
	err := k.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if len(d.Blocked) != 1 || d.Blocked[0] != "p: phase 2" {
		t.Fatalf("blocked = %v, want [p: phase 2]", d.Blocked)
	}
}

// TestParkSelfResumeNoHandoff: a lone process whose own wakeup is always the
// next event still round-trips through the driver on every Park — there is no
// resume-in-place path — and comes back at exactly the times it asked for.
func TestParkSelfResumeNoHandoff(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var times []int64
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Time(i + 1))
			times = append(times, int64(p.Now()))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(times) != "[1 3 6 10 15]" {
		t.Fatalf("times = %v", times)
	}
	if k.Events() != 6 {
		t.Fatalf("events = %d, want 6 (the start and five wakeups, each popped by Run)", k.Events())
	}
}

// TestRunIndependentOfGOMAXPROCS: coroutine switches never go through the Go
// scheduler, so a single-kernel run is the same run on one core and on four.
func TestRunIndependentOfGOMAXPROCS(t *testing.T) {
	run := func(procs int) (string, uint64) {
		setProcs(t, procs)
		k := NewKernel(Config{Seed: 11})
		q := NewQueue[int](k, "q")
		var log []string
		for i := 0; i < 4; i++ {
			k.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 25; j++ {
					p.Sleep(Time(k.Rand().Intn(40)))
					q.Push(j)
				}
			})
			k.Spawn(fmt.Sprintf("cons%d", i), func(p *Proc) {
				for j := 0; j < 25; j++ {
					log = append(log, fmt.Sprintf("%s<%d@%d", p.Name, q.Pop(p), p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ","), k.Events()
	}
	order1, events1 := run(1)
	order4, events4 := run(4)
	if order1 != order4 || events1 != events4 {
		t.Fatalf("GOMAXPROCS changed the run: %d vs %d events\n%s\n%s", events1, events4, order1, order4)
	}
}

// TestNestedSpawnPanicBlamesChild: a process created from inside another
// process is a coroutine of the driver, not of its spawner — its panic is its
// own error, and the spawner runs on to completion.
func TestNestedSpawnPanicBlamesChild(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	parentDone := false
	var child *Proc
	parent := k.Spawn("parent", func(p *Proc) {
		child = k.Spawn("child", func(*Proc) { panic("child boom") })
		p.Sleep(10)
		parentDone = true
	})
	err := k.Run()
	if err == nil || err != child.Err() || !strings.Contains(err.Error(), "process child panicked: child boom") {
		t.Fatalf("err = %v, want the child's panic", err)
	}
	if parent.Err() != nil || !parentDone {
		t.Fatalf("spawner blamed or cut short: err=%v done=%v", parent.Err(), parentDone)
	}
}

// TestEventCallbackPanicEscapesRun: a panic in an event callback must
// escape Run — never be recorded as the error of a process that merely
// happened to be parked when the event fired, even though that process is
// unwound on Run's way out.
func TestEventCallbackPanicEscapesRun(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var innocent *Proc
	innocent = k.Spawn("innocent", func(p *Proc) {
		p.Sleep(100) // parked across t=50
	})
	k.Schedule(50, func() { panic("event boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("event panic did not escape Run")
		}
		if fmt.Sprint(r) != "event boom" {
			t.Fatalf("recovered %v, want the event's own panic value", r)
		}
		if innocent.Err() != nil {
			t.Fatalf("innocent parked process blamed for the event panic: %v", innocent.Err())
		}
	}()
	k.Run()
	t.Fatal("Run returned normally")
}

// BenchmarkHandoff times one Await/Ready hand-off between two processes (one
// wakeup event, two coroutine switches), in the ping-pong shape
// benchmark/layers.go reports as sim.handoff_ns.
func BenchmarkHandoff(b *testing.B) {
	k := NewKernel(Config{Seed: 1, MaxEvents: ^uint64(0)})
	var ping, pong *Proc
	var pingTurn, pongTurn bool
	rounds := (b.N + 1) / 2
	pong = k.Spawn("pong", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Await(&pongTurn, "pong")
			pongTurn, pingTurn = false, true
			ping.Ready()
		}
	})
	ping = k.Spawn("ping", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pongTurn = true
			pong.Ready()
			p.Await(&pingTurn, "ping")
			pingTurn = false
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSelfResume times one process sleeping in a loop: the shape a
// resume-in-place fast path would serve with no switch at all, and the single
// driver serves with two.
func BenchmarkSelfResume(b *testing.B) {
	k := NewKernel(Config{Seed: 1, MaxEvents: ^uint64(0)})
	k.Spawn("p", func(p *Proc) {
		for n := 0; n < b.N; n++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
