// Command raceexp is the experiment driver: it regenerates every table of
// EXPERIMENTS.md (E-T1 … E-T12) from live simulation runs.
//
// Independent trials (seed sweeps, detector grids, protocol comparisons)
// fan out across OS threads via the parallel experiment driver; -par caps
// the worker count (default: GOMAXPROCS). Results are merged in trial
// order, so the emitted tables are bit-identical for a fixed seed whatever
// the parallelism.
//
// Usage:
//
//	raceexp             # run every experiment, GOMAXPROCS-wide
//	raceexp -exp T3     # run one experiment
//	raceexp -par 1      # serial execution (same output)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dsmrace"
	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/dsm"
	"dsmrace/internal/rdma"
	"dsmrace/internal/stats"
	"dsmrace/internal/vclock"
	"dsmrace/internal/verify"
	"dsmrace/internal/workload"
)

var experiments = []struct {
	id   string
	desc string
	run  func()
}{
	{"T1", "clock storage per area vs process count (§IV-C, §IV-D)", expT1},
	{"T2", "messages and bytes per operation by protocol (§V-A)", expT2},
	{"T3", "detector precision/recall against exact ground truth", expT3},
	{"T4", "runtime overhead vs process count (§V-A debugging scale)", expT4},
	{"T5", "benign master-worker race: signal, don't abort (§IV-D)", expT5},
	{"T6", "false positives vs read ratio: V+W against single clock (§IV-D)", expT6},
	{"T7", "one-sided vs collective reduction (§V-B future work)", expT7},
	{"T8", "schedule divergence: the operational race definition (§III-C)", expT8},
	{"T9", "truncated clocks: the Charron-Bost bound in action (§IV-C)", expT9},
	{"T10", "ablations: protocol x granularity x home tick", expT10},
	{"T11", "clock-granularity false sharing: area clocks vs word-level truth (§V-A)", expT11},
	{"T12", "coherence protocols: write-update vs write-invalidate cost and coverage", expT12},
}

// par is the -par worker cap, shared by every experiment's trial fan-out.
var par = flag.Int("par", 0, "max concurrent trials (0 = GOMAXPROCS, 1 = serial)")

func main() {
	exp := flag.String("exp", "all", "experiment id (T1..T12) or all")
	flag.Parse()
	ran := false
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		ran = true
		fmt.Printf("### E-%s: %s\n\n", e.id, e.desc)
		e.run()
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "raceexp: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// parTrials fans n independent trials across the driver's workers and
// returns the results in trial order.
func parTrials[T any](n int, trial func(i int) (T, error)) []T {
	return must(dsmrace.Parallel(n, *par, trial))
}

func detectorOf(name string) core.Detector { return must(dsmrace.NewDetector(name)) }

// expT1: storage bytes per area for each detector as n grows.
func expT1() {
	tb := stats.NewTable("detection state bytes per shared area",
		"procs", "vw (V+W)", "single-clock", "epoch", "vw/single ratio")
	for _, n := range []int{2, 4, 8, 10, 16, 32, 64} {
		vw := core.NewVWDetector().NewAreaState(n).StorageBytes()
		single := detectorOf("single-clock").NewAreaState(n).StorageBytes()
		epoch := detectorOf("epoch").NewAreaState(n).StorageBytes()
		tb.Row(n, vw, single, epoch, float64(vw)/float64(single))
	}
	fmt.Print(tb)
	fmt.Println("claim check: vw = 2*(2+8n) bytes — linear in n (Charron-Bost floor), exactly double the single clock (§IV-D).")
}

// expT2: per-op wire cost for put and get under each protocol at n=4,10:
// the literal protocol's fixed clock format against the piggyback
// protocol's sparse one.
func expT2() {
	run := func(n int, det, proto string, read bool) (msgs, bytes float64) {
		const ops = 40
		spec := dsmrace.RunSpec{
			Procs: n, Seed: 1, Detector: det, Protocol: proto,
			Setup: func(c *dsmrace.Cluster) error { return c.Alloc("x", n-1, 4) },
		}
		progs := make([]dsmrace.Program, n)
		progs[0] = func(p *dsmrace.Proc) error {
			for i := 0; i < ops; i++ {
				if read {
					if _, err := p.GetWord("x", 0); err != nil {
						return err
					}
				} else if err := p.Put("x", 0, 1); err != nil {
					return err
				}
			}
			return nil
		}
		spec.Programs = progs
		res := must(dsmrace.Run(spec))
		return float64(res.NetStats.TotalMsgs) / ops, float64(res.NetStats.TotalBytes) / ops
	}
	for _, n := range []int{4, 10} {
		tb := stats.NewTable(fmt.Sprintf("wire cost per operation, n=%d", n),
			"op", "mode", "msgs/op", "bytes/op")
		for _, mode := range []struct{ det, proto, label string }{
			{"off", "piggyback", "detector off"},
			{"vw", "piggyback", "piggyback-sparse"},
			{"vw", "literal", "literal-fixed"},
		} {
			m, by := run(n, mode.det, mode.proto, false)
			tb.Row("put", mode.label, m, by)
			m, by = run(n, mode.det, mode.proto, true)
			tb.Row("get", mode.label, m, by)
		}
		fmt.Print(tb)
	}
	fmt.Println("claim check: literal Algorithm 1 costs 13 msgs/put and 10 msgs/get in the fixed 2+8n clock format; piggyback needs the same 2 msgs as detection-off, paying only clock bytes, and ships each clock sparse (bitmap + live components) or as a 2-byte covered marker.")
}

// scoreWorkload runs w under det and scores against exact ground truth.
func scoreWorkload(w workload.Workload, det string, seed int64) (verify.Score, error) {
	res, err := w.Run(dsm.Config{Seed: seed, Trace: true, RDMA: rdma.DefaultConfig(detectorOf(det), nil)})
	if err != nil {
		return verify.Score{}, err
	}
	truth := verify.GroundTruth(res.Trace, verify.DefaultOptions())
	return verify.ScoreReports(truth, det, res.Races), nil
}

// expT3: precision/recall of every detector on three workload families.
// The family x detector x seed grid is one flat trial list for the
// parallel driver; rows aggregate in grid order.
func expT3() {
	families := []struct {
		name string
		mk   func() workload.Workload
	}{
		{"random-50r", func() workload.Workload {
			return workload.Random(workload.RandomSpec{Procs: 4, Areas: 4, AreaWords: 2, OpsPerProc: 20, ReadPercent: 50})
		}},
		{"random-locked", func() workload.Workload {
			return workload.Random(workload.RandomSpec{Procs: 4, Areas: 4, AreaWords: 2, OpsPerProc: 15, ReadPercent: 50, LockDiscipline: true})
		}},
		{"stencil-buggy", func() workload.Workload { return workload.StencilBuggy(4, 4, 3) }},
	}
	dets := []string{"vw-exact", "vw", "single-clock", "epoch", "lockset"}
	const seeds = 5
	scores := parTrials(len(families)*len(dets)*seeds, func(i int) (verify.Score, error) {
		fam := families[i/(len(dets)*seeds)]
		det := dets[(i/seeds)%len(dets)]
		seed := int64(i%seeds) + 1
		return scoreWorkload(fam.mk(), det, seed)
	})
	i := 0
	for _, fam := range families {
		tb := stats.NewTable("workload "+fam.name,
			"detector", "TP", "FP", "FN", "precision", "recall")
		for _, det := range dets {
			var tp, fp, fn int
			for s := 0; s < seeds; s++ {
				tp += scores[i].TP
				fp += scores[i].FP
				fn += scores[i].FN
				i++
			}
			prec, rec := 1.0, 1.0
			if tp+fp > 0 {
				prec = float64(tp) / float64(tp+fp)
			}
			if tp+fn > 0 {
				rec = float64(tp) / float64(tp+fn)
			}
			tb.Row(det, tp, fp, fn, prec, rec)
		}
		fmt.Print(tb)
	}
	fmt.Println("claim check: vw-exact is exact; paper-mode vw trades a little recall for the figures' home tick; single-clock floods false positives on reads; lockset is schedule-insensitive (flags locked-free orderings).")
}

// expT4: overhead of detection vs cluster size.
func expT4() {
	tb := stats.NewTable("random workload, 30 ops/proc, 50% reads",
		"procs", "detector", "virtual time", "msgs", "wire bytes", "clock bytes share")
	for _, n := range []int{2, 4, 8, 16, 32} {
		for _, det := range []string{"off", "vw-exact"} {
			w := workload.Random(workload.RandomSpec{Procs: n, Areas: 2 * n, AreaWords: 4, OpsPerProc: 30, ReadPercent: 50})
			res := must(w.Run(dsm.Config{Seed: 1, RDMA: rdma.DefaultConfig(detectorOf(det), nil)}))
			share := 0.0
			if det != "off" {
				clockB := 2 + 8*uint64(n)
				share = float64(res.NetStats.TotalMsgs*clockB) / float64(res.NetStats.TotalBytes)
			}
			tb.Row(n, det, res.Duration.String(), res.NetStats.TotalMsgs, res.NetStats.TotalBytes, share)
		}
	}
	fmt.Print(tb)
	fmt.Println("claim check: piggybacked detection adds zero messages; the byte overhead grows linearly with n, which is why the paper pitches detection as a ~10-process debugging tool (§V-A).")
}

// expT5: the benign master-worker race.
func expT5() {
	w := workload.MasterWorker(6, 5)
	res := must(w.Run(dsm.Config{Seed: 3, RDMA: rdma.DefaultConfig(detectorOf("vw-exact"), nil)}))
	tb := stats.NewTable("master-worker, 5 workers x 5 results", "metric", "value")
	tb.Row("races signalled", res.RaceCount)
	tb.Row("program errors", fmt.Sprint(res.FirstError()))
	tb.Row("master's total", res.Memory[0][0])
	tb.Row("expected total", 25)
	tb.Row("run completed", res.Duration.String())
	fmt.Print(tb)
	fmt.Println("claim check: races are signalled but execution is never aborted; the master still collects the exact total (§IV-D).")
}

// expT6: false-positive rate vs read ratio, the grid flattened for the
// parallel driver.
func expT6() {
	readPcts := []int{0, 25, 50, 75, 90, 100}
	dets := []string{"vw-exact", "single-clock"}
	const seeds = 3
	scores := parTrials(len(readPcts)*len(dets)*seeds, func(i int) (verify.Score, error) {
		readPct := readPcts[i/(len(dets)*seeds)]
		det := dets[(i/seeds)%len(dets)]
		seed := int64(i%seeds) + 1
		w := workload.Random(workload.RandomSpec{Procs: 4, Areas: 4, AreaWords: 2, OpsPerProc: 20, ReadPercent: readPct})
		return scoreWorkload(w, det, seed)
	})
	tb := stats.NewTable("flags vs exact truth across read ratios (4 procs, 20 ops/proc, 3 seeds)",
		"read %", "detector", "flags", "true racy accesses", "false positives")
	i := 0
	for _, readPct := range readPcts {
		for _, det := range dets {
			var flags, racy, fp int
			for s := 0; s < seeds; s++ {
				flags += scores[i].Flagged
				racy += scores[i].TP + scores[i].FN
				fp += scores[i].FP
				i++
			}
			tb.Row(readPct, det, flags, racy, fp)
		}
	}
	fmt.Print(tb)
	fmt.Println("claim check: the single clock's false positives grow with the read share and peak on read-only workloads, where vw stays at zero — the refinement W buys (§IV-D).")
}

// expT7: one-sided vs collective reduction.
func expT7() {
	const n = 8
	oneSided := func() (uint64, string) {
		names := make([]string, n)
		spec := dsmrace.RunSpec{Procs: n, Seed: 1,
			Setup: func(c *dsmrace.Cluster) error {
				for i := range names {
					names[i] = fmt.Sprintf("part%d", i)
					if err := c.Alloc(names[i], i, 8); err != nil {
						return err
					}
				}
				return nil
			}}
		progs := make([]dsmrace.Program, n)
		progs[0] = func(p *dsmrace.Proc) error {
			_, err := p.ReduceOneSided(names, dsmrace.OpSum)
			return err
		}
		spec.Programs = progs
		res := must(dsmrace.Run(spec))
		return res.NetStats.TotalMsgs, res.Duration.String()
	}
	collective := func() (uint64, string) {
		spec := dsmrace.RunSpec{Procs: n, Seed: 1,
			Setup: func(c *dsmrace.Cluster) error { return c.Alloc("scratch", 0, n+1) }}
		spec.Program = func(p *dsmrace.Proc) error {
			_, err := p.ReduceCollective("scratch", dsmrace.Word(p.ID()), dsmrace.OpSum, 0)
			return err
		}
		res := must(dsmrace.Run(spec))
		return res.NetStats.TotalMsgs, res.Duration.String()
	}
	m1, d1 := oneSided()
	m2, d2 := collective()
	tb := stats.NewTable(fmt.Sprintf("global sum over %d nodes", n),
		"variant", "messages", "virtual time", "other processes involved")
	tb.Row("one-sided (§V-B)", m1, d1, "no — pure gets")
	tb.Row("collective", m2, d2, "yes — all put, barrier x2, all get")
	fmt.Print(tb)
	fmt.Println("claim check: the paper's future-work reduction works with zero participation from data owners; the collective costs barrier traffic from every process.")
}

// expT8: schedule divergence across seeds.
func expT8() {
	mkRacy := dsmrace.RunSpec{
		Procs: 3, Detector: "vw-exact",
		Setup:   func(c *dsmrace.Cluster) error { return c.Alloc("x", 0, 1) },
		Program: func(p *dsmrace.Proc) error { return p.Put("x", 0, dsmrace.Word(p.ID()+1)) },
	}
	mkClean := dsmrace.RunSpec{
		Procs: 3, Detector: "vw-exact",
		Setup: func(c *dsmrace.Cluster) error { return c.Alloc("x", 0, 1) },
		Program: func(p *dsmrace.Proc) error {
			if p.ID() == 0 {
				if err := p.Put("x", 0, 9); err != nil {
					return err
				}
			}
			p.Barrier()
			_, err := p.GetWord("x", 0)
			return err
		},
	}
	tb := stats.NewTable("16-seed sweep with 30% latency jitter",
		"program", "distinct final states", "diverged", "total races signalled")
	racy := must(dsmrace.ExploreSchedulesParallel(mkRacy, dsmrace.SeedRange(16), *par))
	clean := must(dsmrace.ExploreSchedulesParallel(mkClean, dsmrace.SeedRange(16), *par))
	tb.Row("3 unsynchronised writers", racy.DistinctStates(), racy.Diverged(), racy.TotalRaces())
	tb.Row("barrier-ordered write/read", clean.DistinctStates(), clean.Diverged(), clean.TotalRaces())
	fmt.Print(tb)
	fmt.Println("claim check: §III-C's operational definition — the racy program's result depends on the schedule, and exactly that program is the one the detector flags.")
}

// expT9: what truncated clocks (size k < n) do to detection.
func expT9() {
	const n, seed = 6, 4
	w := workload.Random(workload.RandomSpec{Procs: n, Areas: 3, AreaWords: 2, OpsPerProc: 15, ReadPercent: 40})
	res := must(w.Run(dsm.Config{Seed: seed, Trace: true, RDMA: rdma.DefaultConfig(detectorOf("vw-exact"), nil)}))
	truth := verify.GroundTruth(res.Trace, verify.DefaultOptions())

	tb := stats.NewTable(fmt.Sprintf("clock size ablation, n=%d procs, %d true racing pairs", n, len(truth.Pairs)),
		"clock size k", "races still visible", "missed (falsely ordered)")
	for k := n; k >= 1; k-- {
		visible, missed := 0, 0
		for _, pr := range truth.Pairs {
			a := truth.Clocks[pr.A].Truncate(k)
			b := truth.Clocks[pr.B].Truncate(k)
			if vclock.ConcurrentWith(a, b) {
				visible++
			} else {
				missed++
			}
		}
		tb.Row(k, visible, missed)
	}
	fmt.Print(tb)
	fmt.Println("claim check: with fewer than n components concurrent pairs collapse into false orderings — Charron-Bost's lower bound (§IV-C) is why the clocks cannot shrink.")
}

// expT10: protocol x granularity x home-tick ablations on one workload.
func expT10() {
	tb := stats.NewTable("put-storm ablations (3 procs, 10 puts each to one hot variable + 1 private variable each)",
		"protocol", "granularity", "detector", "msgs", "flags", "precision", "recall")
	for _, proto := range []string{"piggyback", "literal"} {
		for _, gran := range []string{"area", "node"} {
			for _, det := range []string{"vw-exact", "vw"} {
				spec := dsmrace.RunSpec{
					Procs: 3, Seed: 2, Detector: det, Protocol: proto, Granularity: gran, Trace: true,
					Setup: func(c *dsmrace.Cluster) error {
						if err := c.Alloc("hot", 0, 1); err != nil {
							return err
						}
						for i := 0; i < 3; i++ {
							if err := c.Alloc(fmt.Sprintf("own%d", i), 0, 1); err != nil {
								return err
							}
						}
						return nil
					},
					Program: func(p *dsmrace.Proc) error {
						for i := 0; i < 10; i++ {
							if err := p.Put("hot", 0, dsmrace.Word(i)); err != nil {
								return err
							}
							if err := p.Put(fmt.Sprintf("own%d", p.ID()), 0, dsmrace.Word(i)); err != nil {
								return err
							}
						}
						return nil
					},
				}
				res := must(dsmrace.Run(spec))
				// The literal protocol follows the paper's algorithms, which
				// never merge the home clock back into the writer; ground
				// truth must replay the same absorption semantics.
				opt := verify.DefaultOptions()
				if proto == "literal" {
					opt.AbsorbOnPutAck = false
				}
				truth := verify.GroundTruth(res.Trace, opt)
				s := verify.ScoreReports(truth, det, res.Races)
				tb.Row(proto, gran, det, res.NetStats.TotalMsgs, res.RaceCount, s.Precision, s.Recall)
			}
		}
	}
	fmt.Print(tb)
	fmt.Println("claim check: node granularity (the figures' model) also flags the per-process 'own' variables, which share the hot variable's home clock; the literal protocol multiplies messages 6.5x; without completion absorption (the paper's algorithms) more operation pairs are genuinely concurrent, so the flag counts rise with the true race population.")
}

// expT11: the cost of "a clock per shared piece of data" depends on how big
// a piece is. Processes write disjoint slots of one shared array: at the
// model's area granularity every pair is a race; at word granularity none
// is. Splitting the array into per-slot areas removes the false sharing at
// the price of n clock pairs.
func expT11() {
	const n = 4
	runSlots := func(split bool, gran string) (flags int, areaPairs, wordPairs int, storage int) {
		spec := dsmrace.RunSpec{
			Procs: n, Seed: 2, Detector: "vw-exact", Granularity: gran, Trace: true,
			Setup: func(c *dsmrace.Cluster) error {
				if split {
					for i := 0; i < n; i++ {
						if err := c.Alloc(fmt.Sprintf("slot%d", i), 0, 1); err != nil {
							return err
						}
					}
					return nil
				}
				return c.Alloc("slots", 0, n)
			},
			Program: func(p *dsmrace.Proc) error {
				for it := 0; it < 5; it++ {
					var err error
					if split {
						err = p.Put(fmt.Sprintf("slot%d", p.ID()), 0, dsmrace.Word(it))
					} else {
						err = p.Put("slots", p.ID(), dsmrace.Word(it))
					}
					if err != nil {
						return err
					}
				}
				return nil
			},
		}
		res := must(dsmrace.Run(spec))
		at := verify.GroundTruth(res.Trace, verify.DefaultOptions())
		wt := verify.GroundTruth(res.Trace, verify.WordLevelOptions())
		return res.RaceCount, len(at.Pairs), len(wt.Pairs), res.StorageBytes
	}
	tb := stats.NewTable("4 procs x 5 disjoint-slot writes",
		"layout / clock granularity", "detector flags", "area-level true pairs", "word-level true pairs", "clock bytes")
	f, ap, wp, st := runSlots(false, "area")
	tb.Row("one area, area clocks", f, ap, wp, st)
	f, ap, wp, st = runSlots(false, "word")
	tb.Row("one area, word clocks", f, ap, wp, st)
	f, ap, wp, st = runSlots(true, "area")
	tb.Row("4 areas, 1 slot each", f, ap, wp, st)
	fmt.Print(tb)
	fmt.Println("claim check: per-area clocks flag disjoint-slot writes (false sharing) — word-level truth shows zero real races; word-granularity clocks (or splitting the variable) remove every flag at n-fold clock storage. This is the granularity face of §V-A's 'a clock must be used for each shared piece of data'.")
}

// expT12: the coherence-protocol axis. Each workload runs under
// write-update and write-invalidate with the exact detector; the table
// shows the wire cost (including the replica traffic network statistics
// alone cannot attribute: fetches, hits, invalidations) next to the
// detector's coverage against ground truth — because under
// write-invalidate a cache hit reaches no home, and an access the home
// never sees is an access the online detector cannot check.
func expT12() {
	wls := []struct {
		name string
		mk   func() workload.Workload
	}{
		{"migratory", func() workload.Workload { return workload.Migratory(4, 8, 8) }},
		{"prodchain", func() workload.Workload { return workload.ProducerConsumerChain(4, 6, 8, 4) }},
		{"stencil1d", func() workload.Workload { return workload.Stencil1D(4, 4, 3) }},
		{"pipeline", func() workload.Workload { return workload.Pipeline(4, 2) }},
		{"random-50r", func() workload.Workload {
			return workload.Random(workload.RandomSpec{Procs: 4, Areas: 4, AreaWords: 2, OpsPerProc: 20, ReadPercent: 50})
		}},
	}
	cohs := []string{"write-update", "write-invalidate"}
	type cell struct {
		res   *dsm.Result
		score verify.Score
		pairs string // sync-only ground-truth pair fingerprint
	}
	cells := parTrials(len(wls)*len(cohs), func(i int) (cell, error) {
		w := wls[i/len(cohs)].mk()
		cp, err := coherence.FromName(cohs[i%len(cohs)])
		if err != nil {
			return cell{}, err
		}
		cfg := rdma.DefaultConfig(detectorOf("vw-exact"), nil)
		cfg.Coherence = cp
		res, err := w.Run(dsm.Config{Seed: 1, Trace: true, RDMA: cfg})
		if err != nil {
			return cell{}, err
		}
		truth := verify.GroundTruth(res.Trace, verify.DefaultOptions())
		sync := verify.GroundTruth(res.Trace, verify.SyncOnlyOptions())
		return cell{
			res:   res,
			score: verify.ScoreReports(truth, "vw-exact", res.Races),
			pairs: fmt.Sprint(sync.Pairs),
		}, nil
	})
	tb := stats.NewTable("coherence protocol comparison (vw-exact, seed 1)",
		"workload", "coherence", "msgs", "wire bytes", "fetch/hit/inval", "flags", "recall")
	for i, c := range cells {
		ch := c.res.Coherence
		tb.Row(wls[i/len(cohs)].name, cohs[i%len(cohs)],
			c.res.NetStats.TotalMsgs, c.res.NetStats.TotalBytes,
			fmt.Sprintf("%d/%d/%d", ch.Fetches, ch.Hits, ch.Invalidations),
			c.res.RaceCount, c.score.Recall)
	}
	fmt.Print(tb)
	// The deterministic workloads also prove protocol equivalence at the
	// ground-truth level: identical sync-only race sets under both
	// protocols (the same property the test suite asserts on every seed
	// workload).
	for i, w := range wls {
		if w.name == "pipeline" || w.name == "random-50r" {
			continue // timing-dependent access streams: compared in-suite at area/profile level
		}
		same := cells[i*len(cohs)].pairs == cells[i*len(cohs)+1].pairs
		fmt.Printf("ground-truth equivalence [%s]: %v\n", w.name, same)
	}
	fmt.Println("claim check: migration is write-update's best case (write-invalidate pays a whole-area fetch plus an invalidation round per ownership hop); repeated consumption is write-invalidate's (re-reads are message-free cache hits). The races a program contains are protocol-invariant — but the detector's recall drops under write-invalidate exactly where reads stop reaching the home.")
}
