// Command dsmrace runs a named workload on the simulated DSM cluster with
// a chosen race detector and prints the signalled races, traffic and
// coherence statistics and (optionally) the exact ground truth.
//
// Usage:
//
//	dsmrace -workload master-worker -procs 6 -detector vw
//	dsmrace -workload stencil-buggy -detector vw-exact -truth
//	dsmrace -workload random -read 80 -ops 200 -detector single-clock
//	dsmrace -workload migratory -coherence write-invalidate
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dsmrace"
	coherencepkg "dsmrace/internal/coherence"
	"dsmrace/internal/dsm"
	"dsmrace/internal/rdma"
	"dsmrace/internal/trace"
	"dsmrace/internal/verify"
	"dsmrace/internal/workload"
)

func main() {
	var (
		name      = flag.String("workload", "master-worker", "workload: master-worker, stencil, stencil-buggy, histogram, histogram-racy, prodcons, random, random-locked, pipeline, migratory, prodchain")
		procs     = flag.Int("procs", 4, "number of processes")
		detector  = flag.String("detector", "vw", "detector: "+strings.Join(dsmrace.DetectorNames(), ", "))
		protocol  = flag.String("protocol", "piggyback", "wire protocol: piggyback or literal")
		coherence = flag.String("coherence", "write-update", "coherence protocol: "+strings.Join(dsmrace.CoherenceNames(), ", "))
		seed      = flag.Int64("seed", 1, "simulation seed")
		ops       = flag.Int("ops", 50, "operations per process (random workloads)")
		readPct   = flag.Int("read", 50, "read percentage (random workloads)")
		truth     = flag.Bool("truth", false, "compute exact ground truth and score the detector")
		traceOut  = flag.String("trace", "", "write the execution trace (JSON) to this file")
		maxRaces  = flag.Int("max-races", 10, "print at most this many race reports")
		kernels   = flag.Int("kernels", 1, "kernel shards for partitioned multi-kernel execution (bit-identical to 1; serial-only workloads degrade)")
	)
	flag.Parse()

	w, err := pick(*name, *procs, *ops, *readPct)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrace:", err)
		os.Exit(2)
	}
	det, err := dsmrace.NewDetector(*detector)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrace:", err)
		os.Exit(2)
	}
	rcfg := rdma.DefaultConfig(det, nil)
	switch *protocol {
	case "", "piggyback":
	case "literal":
		rcfg.Protocol = rdma.ProtocolLiteral
	default:
		fmt.Fprintf(os.Stderr, "dsmrace: unknown wire protocol %q (want piggyback or literal)\n", *protocol)
		os.Exit(2)
	}
	coh, err := coherencepkg.FromName(*coherence)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrace:", err)
		os.Exit(2)
	}
	rcfg.Coherence = coh
	if err := rcfg.Validate(w.Procs); err != nil {
		fmt.Fprintln(os.Stderr, "dsmrace:", err)
		os.Exit(2)
	}
	needTrace := *truth || *traceOut != ""
	res, err := w.Run(dsm.Config{Seed: *seed, RDMA: rcfg, Trace: needTrace, Kernels: *kernels})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrace: run:", err)
		if res == nil {
			os.Exit(1)
		}
	}

	fmt.Printf("workload=%s procs=%d detector=%s protocol=%s coherence=%s seed=%d profile=%s\n",
		w.Name, w.Procs, *detector, *protocol, coh.Name(), *seed, w.Profile)
	fmt.Printf("virtual time: %v   events: %d\n", res.Duration, res.Events)
	if *kernels > 1 {
		note := ""
		if res.KernelNote != "" {
			note = " (" + res.KernelNote + ")"
		}
		fmt.Fprintf(os.Stderr, "kernels: %d%s\n", res.Kernels, note)
	}
	fmt.Printf("traffic: %v\n", res.NetStats)
	if coh.CachesRemoteReads() {
		ch := res.Coherence
		fmt.Printf("coherence: fetches=%d hits=%d home-reads=%d invalidations=%d\n",
			ch.Fetches, ch.Hits, ch.HomeReads, ch.Invalidations)
	}
	fmt.Printf("detection state: %d bytes\n", res.StorageBytes)
	fmt.Printf("races signalled: %d\n", res.RaceCount)
	for i, r := range res.Races {
		if i >= *maxRaces {
			fmt.Printf("  ... %d more\n", len(res.Races)-i)
			break
		}
		fmt.Printf("  %v\n", r)
	}

	if *truth {
		gt := verify.GroundTruth(res.Trace, verify.DefaultOptions())
		fmt.Printf("ground truth: %d racing pairs over %d accesses\n", len(gt.Pairs), gt.Accesses)
		score := verify.ScoreReports(gt, *detector, res.Races)
		fmt.Printf("score: %v\n", score)
	}
	if *traceOut != "" {
		if err := writeTrace(res.Trace, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "dsmrace: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d events)\n", *traceOut, len(res.Trace.Events))
	}
}

func pick(name string, procs, ops, readPct int) (workload.Workload, error) {
	switch name {
	case "master-worker":
		return workload.MasterWorker(procs, ops/5+1), nil
	case "stencil":
		return workload.Stencil1D(procs, 8, 4), nil
	case "stencil-buggy":
		return workload.StencilBuggy(procs, 8, 4), nil
	case "histogram":
		return workload.Histogram(procs, 2*procs, ops), nil
	case "histogram-racy":
		return workload.HistogramRacy(procs, 2*procs, ops), nil
	case "prodcons":
		return workload.ProducerConsumer(procs/2, ops/5+1), nil
	case "random":
		return workload.Random(workload.RandomSpec{Procs: procs, Areas: 2 * procs, AreaWords: 4, OpsPerProc: ops, ReadPercent: readPct}), nil
	case "random-locked":
		return workload.Random(workload.RandomSpec{Procs: procs, Areas: 2 * procs, AreaWords: 4, OpsPerProc: ops, ReadPercent: readPct, LockDiscipline: true}), nil
	case "pipeline":
		return workload.Pipeline(procs, ops/10+1), nil
	case "migratory":
		return workload.Migratory(procs, ops/5+1, 8), nil
	case "prodchain":
		return workload.ProducerConsumerChain(procs, ops/10+1, 8, 4), nil
	default:
		return workload.Workload{}, fmt.Errorf("unknown workload %q", name)
	}
}

func writeTrace(tr *trace.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteJSON(f)
}
