package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runAA measures the benchmark against itself: every workload in two
// back-to-back sets (the second in reverse workload order, so drift does not
// line up with a workload), each run a fresh process exactly as the driver
// starts one. It prints, per workload × end-to-end metric, both medians,
// their relative difference, the spread of each set across its seeds and the
// bound, and fails if a pair of medians disagrees beyond the bound or a spread
// (other than setup_s) exceeds it. Runs that marked themselves noisy are
// listed.
func runAA(runs int, seconds float64, w io.Writer) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A/A: 2 sets x %d run(s) per workload (seeds 1..%d), %g s of timed pairs per run\n", runs, runs, seconds)
	fmt.Fprintf(w, "host: nproc=%d %s %s/%s cpu=%q\n", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())

	all := specs(false)
	// values[set][workload][metric] holds one value per seed.
	var values [2]map[string]map[string][]float64
	noisy := 0
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for i := range all {
			s := all[i]
			if set == 1 {
				s = all[len(all)-1-i]
			}
			byMetric := make(map[string][]float64)
			values[set][s.name] = byMetric
			for seed := 1; seed <= runs; seed++ {
				fmt.Fprintf(os.Stderr, "A/A set %d: %s seed %d\n", set+1, s.name, seed)
				out, text, err := runChild(exe, s.name, seed, seconds)
				if err != nil {
					return err
				}
				if strings.Contains(text, "noisy=true") {
					noisy++
					fmt.Fprintf(w, "noisy run: set %d %s seed %d\n", set+1, s.name, seed)
				}
				for _, d := range endToEndDefs {
					byMetric[d.name] = append(byMetric[d.name], out.Metrics[d.name].Value)
				}
			}
		}
	}

	failures := 0
	fmt.Fprintf(w, "\n%-17s %-21s %14s %14s %9s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound", "verdict")
	for _, s := range all {
		for _, d := range endToEndDefs {
			a, b := values[0][s.name][d.name], values[1][s.name][d.name]
			ma, mb := median(a), median(b)
			// worse is how far set B's median is on the bad side of set A's.
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if math.Abs(worse) > d.bound {
				verdict = "FAIL medians differ"
			} else if d.name != "setup_s" && (sa > d.bound || sb > d.bound) {
				verdict = "FAIL spread"
			}
			if verdict != "ok" {
				failures++
			}
			fmt.Fprintf(w, "%-17s %-21s %14.4f %14.4f %8.3f%% %8.3f%% %8.3f%% %6.1f%%  %s\n",
				s.name, d.name, ma, mb, worse*100, sa*100, sb*100, d.bound*100, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d of %d workload x metric pairs out of bound, %d noisy run(s)\n", failures, len(all)*len(endToEndDefs), noisy)
	if failures > 0 {
		return fmt.Errorf("A/A failed: %d pairs out of bound", failures)
	}
	return nil
}

// spread is the interquartile distance as a share of the median, the rule
// the benchmark contract judges run-to-run steadiness by.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// runChild runs one workload in a fresh process, waits for it, and parses
// the result object on its last line.
func runChild(exe, workload string, seed int, seconds float64) (output, string, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return output{}, stdout.String(), fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stdout.String())
	}
	text := strings.TrimSpace(stdout.String())
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var out output
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return output{}, text, fmt.Errorf("%s seed %d: parse result line: %w", workload, seed, err)
	}
	return out, text, nil
}

// cpuModel reads the host's CPU model name for the A/A stamp.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	data, _ := io.ReadAll(f) // a short read only shortens the stamp
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
