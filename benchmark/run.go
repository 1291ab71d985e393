package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"dsmrace/internal/dsm"
	"dsmrace/internal/sim"
	"dsmrace/internal/verify"
	"dsmrace/internal/workload"
)

const (
	// prerollTime is how long every core is kept busy before anything is
	// measured: on the 2-vCPU host this was developed on, the first
	// two-thread burst after ~20 s idle stalls 1.0–1.3 s whatever code runs,
	// and a pre-roll this long absorbed it in 5 of 5 trials. Only
	// benchmark_test.go runs without it.
	prerollTime = 1500 * time.Millisecond
	// setupTrials is how many times set-up is repeated; setup_s is their
	// median, which discards the first trial's cold-heap cost.
	setupTrials = 3
	// minPairs is the fewest timed pairs a run reports medians over.
	minPairs = 3
	// noisySpread marks a run whose repetitions disagree by more than this
	// share of their median; it is reported, never retried.
	noisySpread = 0.10
)

// fingerprint is everything observable about a repetition's outcome; every
// repetition of one variant within a run must produce the same one.
type fingerprint struct {
	Races    int
	Msgs     uint64
	Bytes    uint64
	Duration sim.Time
	Events   uint64
	Memory   uint64
}

func fingerprintOf(res *dsm.Result) fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	for _, seg := range res.Memory {
		for _, w := range seg {
			for i := range buf {
				buf[i] = byte(w >> (8 * i))
			}
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return fingerprint{
		Races:    res.RaceCount,
		Msgs:     res.NetStats.TotalMsgs,
		Bytes:    res.NetStats.TotalBytes,
		Duration: res.Duration,
		Events:   res.Events,
		Memory:   h.Sum64(),
	}
}

// rep is one completed repetition.
type rep struct {
	res     *dsm.Result
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	areas   int
}

// run accumulates one invocation's op accounting and check failures.
type run struct {
	s         spec
	seed      int64
	out       io.Writer
	tr        *tracer // nil outside the traced pass
	attempted int
	failed    int
	problems  []string
}

// fail records a failed check and counts ops as failed (0 for a layer
// driver, which runs no program ops; the run is still marked incorrect).
func (r *run) fail(ops int, format string, args ...any) {
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// repetition builds a fresh cluster, runs w to completion under v and checks
// the outcome, recording spans around each call when tr is non-nil. The wall
// time covers cluster construction, variable setup and the run itself; checks
// and memory statistics stay outside it. A failed check counts every op of
// the repetition as failed; a program error counts that process's ops.
func (r *run) repetition(w workload.Workload, rounds int, v variant, tr *tracer) rep {
	ops := r.s.ops(rounds)
	r.attempted += ops
	cfg := r.s.config(w, r.seed, v)

	// Collect before the repetition and never inside it. With the collector
	// pacing itself, racy-n16 (200 MB allocated per repetition) settled into
	// one of two regimes per process and its run medians differed by 10% on
	// unchanged code; collecting only between repetitions they agree within
	// 2%. The setting is restored after each repetition: leaving it off for
	// the whole invocation measured slower and twice as scattered. What the
	// collector would have had to do is reported as allocs_per_op and
	// alloc_bytes_per_op.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	end := tr.begin("dsm.new")
	c, err := dsm.New(cfg)
	end()
	if err != nil {
		r.fail(ops, "dsm.New: %v", err)
		return rep{}
	}
	end = tr.begin("workload.setup")
	err = w.Setup(c)
	end()
	if err != nil {
		r.fail(ops, "workload setup: %v", err)
		return rep{}
	}
	name := "dsm.run"
	if v.trace {
		name = "dsm.run.traced"
	}
	end = tr.begin(name)
	res, err := c.RunEach(w.Programs())
	end()

	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	out := rep{
		res: res, wall: wall,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		areas:   c.Space().AreaCount(),
	}
	if err != nil {
		r.fail(ops, "run: %v", err)
		return out
	}

	end = tr.begin("workload.check")
	defer end()
	bad := 0
	for _, e := range res.Errors {
		if e != nil {
			bad++
		}
	}
	if bad > 0 {
		r.fail(bad*rounds, "%d processes returned errors, first: %v", bad, res.FirstError())
		return out
	}
	if w.Check != nil {
		if err := w.Check(res); err != nil {
			r.fail(ops, "workload check: %v", err)
			return out
		}
	}
	if r.s.raceFree && res.RaceCount != 0 {
		r.fail(ops, "race-free workload reported %d races", res.RaceCount)
	}
	if want := max(v.kernels, 1); !v.trace && res.Kernels != want {
		r.fail(ops, "ran on %d kernels, want %d (%s)", res.Kernels, want, res.KernelNote)
	}
	return out
}

// sameFingerprint fails the repetition unless it reproduced want.
func (r *run) sameFingerprint(what string, got rep, rounds int, want fingerprint) {
	if got.res == nil {
		return
	}
	if fp := fingerprintOf(got.res); fp != want {
		r.fail(r.s.ops(rounds), "%s: fingerprint %+v differs from %+v", what, fp, want)
	}
}

// preroll keeps every core busy for d and returns how long it actually
// took. It is outside every metric.
func preroll(d time.Duration) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Since(start) < d {
				for j := 0; j < 1<<16; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			sink = x
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sink keeps the compiler from deleting measured loops.
var sink uint64

// measured is what the end-to-end protocol produces.
type measured struct {
	prerollS float64
	setupS   []float64
	warm     []rep // the set-up trials' warm-up repetitions (under spans in the traced pass)
	on, off  []rep // the timed pairs, vw-exact and detection-off, never under spans
	acc      rep   // the traced accuracy pass
	score    verify.Score
	truthUs  float64 // verify.GroundTruth wall time
}

// measure runs the whole closed-loop protocol for one workload: pre-roll,
// set-up trials, timed vw-exact/detection-off pairs until seconds have
// elapsed (at least minPairs), and the traced accuracy pass.
func (r *run) measure(o options) measured {
	var m measured
	m.prerollS = preroll(o.preroll).Seconds()
	runtime.GOMAXPROCS(r.s.gomaxprocs)

	// Set-up: generate the workload and run one full untimed warm-up pair
	// (heap growth, pool fill, goroutine and thread start). Both variants are
	// warmed: the first vw-exact repetition after the first detection-off one
	// otherwise runs 5–10% slow.
	var w workload.Workload
	var want, wantOff fingerprint
	for i := 0; i < setupTrials; i++ {
		start := time.Now()
		end := r.tr.begin("workload.generate")
		w = r.s.generate(r.s.rounds)
		end()
		warm := r.repetition(w, r.s.rounds, variant{detect: true, kernels: r.s.kernels}, r.tr)
		warmOff := r.repetition(w, r.s.rounds, variant{kernels: r.s.kernels}, r.tr)
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		if warm.res == nil || warmOff.res == nil {
			return m
		}
		if i == 0 {
			want, wantOff = fingerprintOf(warm.res), fingerprintOf(warmOff.res)
		}
		r.sameFingerprint("warm-up", warm, r.s.rounds, want)
		r.sameFingerprint("warm-up detection-off", warmOff, r.s.rounds, wantOff)
		warm.res = nil
		m.warm = append(m.warm, warm)
	}

	begin := time.Now()
	for len(m.on) < minPairs || time.Since(begin).Seconds() < o.seconds {
		on := r.repetition(w, r.s.rounds, variant{detect: true, kernels: r.s.kernels}, nil)
		off := r.repetition(w, r.s.rounds, variant{kernels: r.s.kernels}, nil)
		if on.res == nil || off.res == nil {
			return m
		}
		r.sameFingerprint("vw-exact", on, r.s.rounds, want)
		r.sameFingerprint("detection-off", off, r.s.rounds, wantOff)
		if len(m.on) > 0 {
			// Only the first pair's results are read again (they all carry
			// the same fingerprint); every racy-n16 Result holds 150k
			// reports, and keeping them all would grow the heap with every
			// pair.
			on.res, off.res = nil, nil
		}
		m.on, m.off = append(m.on, on), append(m.off, off)
	}

	// Accuracy: a short traced run scored against offline ground truth.
	// Tracing needs the single kernel's apply order, so a Kernels=2 workload
	// degrades to one kernel here; the run's KernelNote says so.
	end := r.tr.begin("workload.generate")
	aw := r.s.generate(r.s.accRounds)
	end()
	m.acc = r.repetition(aw, r.s.accRounds, variant{detect: true, trace: true, kernels: r.s.kernels}, r.tr)
	if m.acc.res == nil || m.acc.res.Trace == nil {
		return m
	}
	if note := m.acc.res.KernelNote; note != "" {
		fmt.Fprintf(r.out, "accuracy pass ran on %d kernel(s): %s\n", m.acc.res.Kernels, note)
	}
	end = r.tr.begin("verify.ground_truth")
	start := time.Now()
	truth := verify.GroundTruth(m.acc.res.Trace, verify.DefaultOptions())
	m.truthUs = float64(time.Since(start).Nanoseconds()) / 1e3
	end()
	end = r.tr.begin("verify.score")
	m.score = verify.ScoreReports(truth, "vw-exact", m.acc.res.Races)
	end()
	if r.s.raceFree && len(truth.Racy) != 0 {
		r.fail(r.s.ops(r.s.accRounds), "race-free workload has %d racy accesses in ground truth", len(truth.Racy))
	}
	return m
}

// complete reports whether every phase of the protocol produced a result.
func (m measured) complete() bool {
	return len(m.on) >= minPairs && len(m.off) == len(m.on) && m.acc.res != nil && m.acc.res.Trace != nil
}

func walls(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, p := range reps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// endToEnd derives the twelve end-to-end metrics from a completed protocol.
func (r *run) endToEnd(m measured) map[string]float64 {
	ops := float64(r.s.ops(r.s.rounds))
	on := m.on[0].res
	mallocs := make([]float64, len(m.on))
	bytes := make([]float64, len(m.on))
	for i, p := range m.on {
		mallocs[i], bytes[i] = float64(p.mallocs), float64(p.bytes)
	}
	return map[string]float64{
		"ops_per_s":            ops / median(walls(m.on)),
		"ops_per_s_detect_off": ops / median(walls(m.off)),
		"setup_s":              median(m.setupS),
		"allocs_per_op":        median(mallocs) / ops,
		"alloc_bytes_per_op":   median(bytes) / ops,
		"events_per_op":        float64(on.Events) / ops,
		"msgs_per_op":          float64(on.NetStats.TotalMsgs) / ops,
		"wire_bytes_per_op":    float64(on.NetStats.TotalBytes) / ops,
		"vns_per_op":           float64(on.Duration) / ops,
		"detect_storage_mb":    float64(on.StorageBytes) / 1e6,
		"race_recall":          m.score.Recall,
		"race_precision":       m.score.Precision,
	}
}

// repSpread is (max−min) ÷ median of the repetition wall times.
func repSpread(v []float64) float64 {
	s := sorted(v)
	return (s[len(s)-1] - s[0]) / median(v)
}

// printReps prints one variant's per-repetition wall times with their
// sample count, extremes and quartiles.
func printReps(out io.Writer, label string, v []float64) {
	q1, med, q3 := quartiles(v)
	s := sorted(v)
	fmt.Fprintf(out, "%s: n=%d min=%.4fs q1=%.4fs median=%.4fs q3=%.4fs max=%.4fs reps=[", label, len(v), s[0], q1, med, q3, s[len(s)-1])
	for i, x := range v {
		if i > 0 {
			fmt.Fprint(out, " ")
		}
		fmt.Fprintf(out, "%.4f", x)
	}
	fmt.Fprintln(out, "]")
}

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// median is the middle cut point of quartiles.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the benchmark contract's
// spread rule is stated in. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
