package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The tests run the real protocol on the scaled-down size table (same shapes,
// cluster configuration and checks; no pre-roll), so tier-1 exercises every
// metric in a few seconds.

type smallRun struct {
	out  output
	text string
}

var (
	smallOnce sync.Once
	smallE2E  map[string]smallRun
	smallLay  map[string]smallRun
	smallDir  string
	smallErr  error
)

// smallRuns measures every workload once end to end and once traced.
func smallRuns(t *testing.T) (e2e, layers map[string]smallRun, dir string) {
	t.Helper()
	smallOnce.Do(func() {
		smallE2E, smallLay = map[string]smallRun{}, map[string]smallRun{}
		smallDir, smallErr = os.MkdirTemp("", "benchmark-spans")
		if smallErr != nil {
			return
		}
		for _, s := range specs(true) {
			for _, traced := range []bool{false, true} {
				var buf bytes.Buffer
				out, err := runWorkload(s, options{seed: 1, traced: traced, outDir: smallDir}, &buf)
				if err != nil {
					smallErr = err
					return
				}
				if traced {
					smallLay[s.name] = smallRun{out, buf.String()}
				} else {
					smallE2E[s.name] = smallRun{out, buf.String()}
				}
			}
		}
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallE2E, smallLay, smallDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smallDir != "" {
		os.RemoveAll(smallDir)
	}
	os.Exit(code)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every named metric is present, finite and well named, the result line is
// the last thing printed, and no op failed.
func TestEveryMetricReported(t *testing.T) {
	e2e, layers, _ := smallRuns(t)
	for _, s := range specs(true) {
		for _, c := range []struct {
			run  smallRun
			defs []metricDef
		}{{e2e[s.name], endToEndDefs}, {layers[s.name], perLayerDefs}} {
			if !c.run.out.Correct || c.run.out.Failed != 0 || c.run.out.Attempted < 1 {
				t.Errorf("%s: correct=%t attempted=%d failed=%d", s.name, c.run.out.Correct, c.run.out.Attempted, c.run.out.Failed)
			}
			if len(c.run.out.Metrics) != len(c.defs) {
				t.Errorf("%s: %d metrics reported, %d defined", s.name, len(c.run.out.Metrics), len(c.defs))
			}
			for _, d := range c.defs {
				v, ok := c.run.out.Metrics[d.name]
				if !ok || !finite(v.Value) || v.Unit != d.unit {
					t.Errorf("%s: metric %s = %+v (present %t), want finite with unit %s", s.name, d.name, v, ok, d.unit)
				}
				if !metricName.MatchString(d.name) {
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
				}
				if !strings.Contains(c.run.text, d.name) {
					t.Errorf("%s: metric %s is not printed by name", s.name, d.name)
				}
			}
			lines := strings.Split(strings.TrimSpace(c.run.text), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", s.name, err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[key]; !ok {
					t.Errorf("%s: result object lacks %q", s.name, key)
				}
			}
			if len(last) != 4 {
				t.Errorf("%s: result object has %d keys, want exactly 4", s.name, len(last))
			}
		}
		for _, d := range endToEndDefs {
			if e2e[s.name].out.Metrics[d.name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0; a relative bound needs a non-zero base", s.name, d.name)
			}
		}
		if s.name == "racy-n16" && layers[s.name].out.Metrics["core.reports_per_op"].Value == 0 {
			t.Error("racy-n16 reported no races: race_recall would be vacuous")
		}
		if s.kernels == 2 && layers[s.name].out.Metrics["sim.mk_windows_per_kop"].Value == 0 {
			t.Errorf("%s ran no multi-kernel windows", s.name)
		}
	}
}

// BENCHMARK.json at the root mirrors the tables in this package.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	all := specs(false)
	if len(doc.Workloads) != len(all) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(doc.Workloads), len(all))
	}
	for i, s := range all {
		if w := doc.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, specs has %q (or their reasons differ)", i, w.Name, s.name)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters", s.name, len(s.why))
		}
	}
	check := func(section string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", section, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, table has %+v", section, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json %v, in the table %v", d.name, g.Bound, d.bound)
			case !bounded && (g.Bound != nil || d.bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs, true)
	check("per_layer", doc.PerLayer, perLayerDefs, false)

	// The bounds a run prints are the table's.
	e2e, _, _ := smallRuns(t)
	for _, d := range endToEndDefs {
		printed := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + ` .*$`).FindString(e2e["uniform-n256"].text)
		if want := fmt.Sprintf("bound %g%%", d.bound*100); !strings.HasSuffix(printed, want) {
			t.Errorf("%s: printed %q, want it to end in %q", d.name, printed, want)
		}
	}
}

var exactMetrics = []string{"events_per_op", "msgs_per_op", "wire_bytes_per_op", "vns_per_op", "detect_storage_mb", "race_recall", "race_precision"}

// The seven simulated metrics repeat exactly for a seed, and the seed is
// really threaded: it changes the random workload's virtual time and leaves
// a program that draws no randomness untouched.
func TestExactMetricsAndSeed(t *testing.T) {
	e2e, _, _ := smallRuns(t)
	again := func(name string, seed int64) output {
		s, err := specByName(name, true)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runWorkload(s, options{seed: seed}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, s := range specs(true) {
		second := again(s.name, 1)
		for _, name := range exactMetrics {
			if a, b := e2e[s.name].out.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s was %v then %v on the same seed", s.name, name, a, b)
			}
		}
	}
	if a, b := e2e["uniform-n256"].out.Metrics["vns_per_op"].Value, again("uniform-n256", 2).Metrics["vns_per_op"].Value; a == b {
		t.Errorf("uniform-n256: vns_per_op is %v under seeds 1 and 2: the seed does not reach the run", a)
	}
	other := again("prodchain-n16-wi", 2)
	for _, name := range exactMetrics {
		if a, b := e2e["prodchain-n16-wi"].out.Metrics[name].Value, other.Metrics[name].Value; a != b {
			t.Errorf("prodchain-n16-wi draws no randomness, yet %s is %v under seed 1 and %v under seed 2", name, a, b)
		}
	}
	// The program receives the generated workload and the seed, nothing else.
	s := specs(true)[0]
	cfg := s.config(s.generate(s.rounds), 7, variant{detect: true, kernels: s.kernels})
	if cfg.Seed != 7 || cfg.Procs != s.procs {
		t.Errorf("config carries seed %d procs %d, want 7 and %d", cfg.Seed, cfg.Procs, s.procs)
	}
}

// The span file parses, has one root, and every child lies inside its parent.
func TestSpanFile(t *testing.T) {
	_, _, dir := smallRuns(t)
	for _, s := range specs(true) {
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+s.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var f spanFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatal(err)
		}
		if f.Invocation == "" || f.Workload != s.name || f.Seed != 1 {
			t.Errorf("%s: header %q %q seed %d", s.name, f.Invocation, f.Workload, f.Seed)
		}
		seen := map[string]bool{}
		for i, sp := range f.Spans {
			seen[sp.Name] = true
			if sp.ID != i+1 || sp.EndNs < sp.StartNs {
				t.Fatalf("%s: span %d is %+v", s.name, i, sp)
			}
			if sp.Parent == 0 {
				if i != 0 {
					t.Errorf("%s: span %q has no parent and is not the root", s.name, sp.Name)
				}
				continue
			}
			if sp.Parent >= sp.ID {
				t.Fatalf("%s: span %q names parent %d", s.name, sp.Name, sp.Parent)
			}
			if p := f.Spans[sp.Parent-1]; sp.StartNs < p.StartNs || sp.EndNs > p.EndNs {
				t.Errorf("%s: span %q [%d,%d] lies outside its parent %q [%d,%d]", s.name, sp.Name, sp.StartNs, sp.EndNs, p.Name, p.StartNs, p.EndNs)
			}
		}
		for _, name := range []string{"bench.traced", "workload.generate", "dsm.new", "workload.setup", "dsm.run", "workload.check",
			"dsm.run.traced", "verify.ground_truth", "verify.score", "layer.vclock", "layer.core", "layer.sim", "layer.network",
			"layer.rdma", "layer.coherence", "layer.memory", "layer.dsm", "layer.fault", "layer.mcheck"} {
			if !seen[name] {
				t.Errorf("%s: no %q span", s.name, name)
			}
		}
		for name, ns := range selfTimes(f.Spans) {
			if ns < 0 {
				t.Errorf("%s: self time of %q is %d ns", s.name, name, ns)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// benchmark contract states its spread rule in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{9, 1, 5, 3, 7}, 2, 5, 8},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		if q1, q2, q3 := quartiles(c.v); q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
