// Command benchmark is the repository's benchmark: four pinned-core cluster
// workloads, each measured as interleaved vw-exact / detection-off pairs,
// with exact simulated metrics and a separate outside-in per-layer traced
// pass. See README.md in this directory for every metric and workload.
//
//	go run ./benchmark -workload uniform-n256 -seed 1
//	go run ./benchmark -workload uniform-n256 -seed 1 -trace 1
//	go run ./benchmark -aa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one metric. bound is the share of the parent's median by
// which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics have none. BENCHMARK.json mirrors these tables and
// benchmark_test.go holds the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// Bounds come from three A/A runs of unchanged code (README.md lists them,
// AA.txt is the last). Across ten runs on the development host the
// throughputs' run medians have an interquartile spread of 1–5.6%, and two
// sets run half an hour apart differed by up to 5.7%, so they are bounded at
// 10%. setup_s has the largest bound because it is the
// median of only three trials. The simulated metrics repeat exactly for a
// seed, so their bounds only have to cover how they vary from seed to seed:
// not at all for events, messages, wire bytes and storage, 0.2% for the
// allocation counts, and 1.2% for vns_per_op on uniform-n256, whose duration
// is the finishing time of the slowest of 256 processes.
var endToEndDefs = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.10},
	{"ops_per_s_detect_off", "ops/s", "higher", 0.10},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "allocs/op", "lower", 0.01},
	{"alloc_bytes_per_op", "B/op", "lower", 0.01},
	{"events_per_op", "events/op", "lower", 0.001},
	{"msgs_per_op", "msgs/op", "lower", 0.001},
	{"wire_bytes_per_op", "B/op", "lower", 0.001},
	{"vns_per_op", "vns/op", "lower", 0.04},
	{"detect_storage_mb", "MB", "lower", 0.001},
	{"race_recall", "fraction", "higher", 0.001},
	{"race_precision", "fraction", "higher", 0.001},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line a run prints: whether every check passed, the op
// accounting, and the metrics of the pass that ran.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are one invocation's inputs.
type options struct {
	seed int64
	// seconds is how long the timed pairs run (the traced pass always runs
	// minPairs); preroll is how long the cores are kept busy first.
	seconds float64
	preroll time.Duration
	traced  bool
	// outDir receives trace-<workload>.json from a traced run.
	outDir string
}

// runWorkload measures one workload and prints every metric by name with
// its unit to w, the result object last.
func runWorkload(s spec, o options, w io.Writer) (output, error) {
	r := &run{s: s, seed: o.seed, out: w}
	defs := endToEndDefs
	var values map[string]float64
	if o.traced {
		defs = perLayerDefs
		r.tr = newTracer()
		root := r.tr.begin("bench.traced")
		o.seconds = 0
		m := r.measure(o)
		if m.complete() {
			values = r.perLayer(m)
		}
		root()
		path := filepath.Join(o.outDir, "trace-"+s.name+".json")
		id := fmt.Sprintf("%s-seed%d-%d", s.name, o.seed, r.tr.t0.UnixNano())
		if err := r.tr.write(path, spanFile{Invocation: id, Workload: s.name, Seed: o.seed}); err != nil {
			return output{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(r.tr.spans), path)
	} else {
		m := r.measure(o)
		if m.complete() {
			values = r.endToEnd(m)
			r.printRun(m)
		}
	}

	out := output{
		Correct:   len(r.problems) == 0 && values != nil,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	fmt.Fprintf(w, "workload=%s seed=%d gomaxprocs=%d kernels=%d ops_per_rep=%d ops_attempted=%d ops_failed=%d\n",
		s.name, o.seed, s.gomaxprocs, s.kernels, s.ops(s.rounds), r.attempted, r.failed)
	if values == nil {
		return out, fmt.Errorf("%s: the run did not complete: %v", s.name, r.problems)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || !finite(v) {
			return out, fmt.Errorf("%s: metric %s missing or not finite (%v)", s.name, d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if d.bound > 0 {
			fmt.Fprintf(w, "%-34s %16.6f %-10s %s is better, bound %g%%\n", d.name, v, d.unit, d.better, d.bound*100)
		} else {
			fmt.Fprintf(w, "%-34s %16.6f %-10s %s is better\n", d.name, v, d.unit, d.better)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return out, err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !out.Correct {
		return out, fmt.Errorf("%s: %d checks failed, %d of %d ops", s.name, len(r.problems), r.failed, r.attempted)
	}
	return out, nil
}

// printRun prints the per-repetition evidence behind the medians.
func (r *run) printRun(m measured) {
	fmt.Fprintf(r.out, "host.preroll_s %.4f\n", m.prerollS)
	printReps(r.out, "setup", m.setupS)
	printReps(r.out, "vw-exact", walls(m.on))
	printReps(r.out, "detection-off", walls(m.off))
	spread := repSpread(walls(m.on))
	fmt.Fprintf(r.out, "host.rep_spread %.4f noisy=%t\n", spread, spread > noisySpread)
	fmt.Fprintf(r.out, "accuracy: %s\n", m.score)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see README.md)")
		seed     = flag.Int64("seed", 1, "workload seed, passed to the program only as dsm.Config.Seed")
		seconds  = flag.Float64("seconds", 20, "how long the timed pairs run; repetitions are sized by op count")
		trace    = flag.Int("trace", 0, "1 runs the per-layer traced pass instead of the end-to-end run")
		traced   = flag.Bool("traced", false, "same as -trace 1")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for the span file of a traced run")
		aa       = flag.Bool("aa", false, "run every workload in two back-to-back sets and compare their medians")
		runs     = flag.Int("runs", 1, "with -aa: runs per workload in each set, seeds 1..runs")
	)
	flag.Parse()
	if *aa {
		if err := runAA(*runs, *seconds, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	s, err := specByName(*workload, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, preroll: prerollTime, traced: *traced || *trace != 0, outDir: *outDir}
	if _, err := runWorkload(s, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
