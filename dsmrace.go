// Package dsmrace is a distributed-shared-memory simulator with built-in
// race-condition detection, reproducing "A Model for Coherent Distributed
// Memory For Race Condition Detection" (Butelle & Coti, IPPS 2011,
// arXiv:1101.4193).
//
// The library models clusters of processes with private/public memory
// segments joined by an RDMA-capable interconnect (one-sided put/get, OS
// bypass, NIC locks) under a deterministic discrete-event simulation.
// The paper's vector-clock race detector — a general-purpose clock V and a
// write clock W per shared memory area — runs inside the communication
// library, alongside baseline detectors (single-clock, lockset, epoch) and
// an offline exact ground-truth verifier.
//
// Quick start:
//
//	res, err := dsmrace.Run(dsmrace.RunSpec{
//		Procs:    4,
//		Detector: "vw-exact",
//		Setup: func(c *dsmrace.Cluster) error {
//			return c.Alloc("x", 0, 1)
//		},
//		Program: func(p *dsmrace.Proc) error {
//			return p.Put("x", 0, dsmrace.Word(p.ID()))
//		},
//	})
//	// res.Races holds the signalled race reports.
package dsmrace

import (
	"fmt"

	"dsmrace/internal/baseline"
	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/dsm"
	"dsmrace/internal/fault"
	"dsmrace/internal/mcheck"
	"dsmrace/internal/network"
	"dsmrace/internal/rdma"
	"dsmrace/internal/sim"
	"dsmrace/internal/trace"
	"dsmrace/internal/verify"
)

// Re-exported core types: the facade keeps downstream imports to one path.
type (
	// Cluster is a configured DSM system; allocate variables, then run.
	Cluster = dsm.Cluster
	// Proc is a process handle inside a program.
	Proc = dsm.Proc
	// Program is one process's code.
	Program = dsm.Program
	// Result summarises a run.
	Result = dsm.Result
	// Report is one signalled race condition.
	Report = core.Report
	// Word is the unit of shared storage.
	Word = uint64
	// Trace is a recorded execution.
	Trace = trace.Trace
	// GroundTruth is the exact race set of a trace.
	GroundTruth = verify.Result
	// Score is a detector-vs-truth confusion summary.
	Score = verify.Score
	// Time is virtual simulation time in nanoseconds.
	Time = sim.Time
	// MultiKernelStats counts the window/barrier work of a Kernels>1 run
	// (windows, adaptive extensions, merged records);
	// see Result.WindowStats.
	MultiKernelStats = sim.MultiKernelStats
	// CoherenceStats counts replica events (hits, fetches, invalidations)
	// of a run — all zero under write-update, which keeps no replicas.
	CoherenceStats = coherence.Stats
	// FaultSchedule is a deterministic fault-injection plan (see
	// RunSpec.Faults).
	FaultSchedule = fault.Schedule
	// FaultEvent is one timed fault action (link cut/heal, crash/restart).
	FaultEvent = fault.Event
	// FaultOp names a fault action.
	FaultOp = fault.Op
	// DropRule is a per-message-kind drop probability.
	DropRule = fault.DropRule
)

// Fault actions and wildcards re-exported for building schedules.
const (
	FaultCutLink  = fault.CutLink
	FaultHealLink = fault.HealLink
	FaultCrash    = fault.Crash
	FaultRestart  = fault.Restart
	FaultAnyNode  = fault.AnyNode
	FaultAnyKind  = fault.AnyKind
)

// Virtual time units for building fault schedules and reading durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// ErrUnreachable is the typed error surfaced by operations whose retry
// budget expired against a crashed or partitioned peer. Test with
// errors.Is(err, dsmrace.ErrUnreachable).
var ErrUnreachable = rdma.ErrUnreachable

// Reduction operators re-exported for collective calls.
const (
	OpSum  = dsm.OpSum
	OpMax  = dsm.OpMax
	OpMin  = dsm.OpMin
	OpProd = dsm.OpProd
)

// DetectorNames lists the accepted RunSpec.Detector values.
func DetectorNames() []string {
	return []string{"vw", "vw-exact", "single-clock", "lockset", "epoch", "off"}
}

// CoherenceNames lists the accepted RunSpec.Coherence values.
func CoherenceNames() []string { return coherence.Names() }

// NewDetector builds a detector by name ("off" and "" yield nil: detection
// disabled).
func NewDetector(name string) (core.Detector, error) {
	switch name {
	case "vw":
		return core.NewVWDetector(), nil
	case "vw-exact", "":
		if name == "" {
			return nil, nil
		}
		return core.NewExactVWDetector(), nil
	case "single-clock":
		return baseline.NewSingleClock(), nil
	case "lockset":
		return baseline.NewLockset(), nil
	case "epoch":
		return baseline.NewEpoch(), nil
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("dsmrace: unknown detector %q (want one of %v)", name, DetectorNames())
	}
}

// RunSpec is the high-level run description.
type RunSpec struct {
	// Procs is the number of processes (required).
	Procs int
	// Seed selects the schedule; identical seeds reproduce identical runs.
	Seed int64
	// Detector names the race detector: "vw" (paper), "vw-exact",
	// "single-clock", "lockset", "epoch" or "off"/"" (disabled).
	Detector string
	// Protocol is "piggyback" (default) or "literal" (the paper's
	// Algorithms 1–5 message by message). This is the *wire* protocol —
	// how clocks travel with an access; Coherence below is the *coherence*
	// protocol — which copies of the data exist at all.
	Protocol string
	// Coherence selects the coherence protocol: "write-update" (default;
	// the single-copy home-based model of the paper), "write-invalidate"
	// (home-based directory, whole-area read caching, acknowledged
	// invalidations), "causal" (Cohen-style causal memory: versioned
	// asynchronous updates carrying vector-clock dependencies, causally
	// consistent but deliberately not sequentially consistent) or "mesi"
	// (four-state M/E/S/I caching with exclusive grants, silent E→M
	// upgrades and directory-tracked recalls). Every caching protocol
	// requires the piggyback wire protocol.
	Coherence string
	// Granularity is "area" (default; one clock pair per shared variable),
	// "node" (the figures' coarse model) or "word" (no clock false
	// sharing, maximum storage; piggyback protocol only).
	Granularity string
	// Latency overrides the interconnect model (default: InfiniBand-class).
	Latency network.LatencyModel
	// Jitter adds ±fraction latency noise, letting different seeds explore
	// different interleavings.
	Jitter float64
	// Kernels requests partitioned multi-kernel execution: the cluster's
	// nodes split across this many kernel shards running in parallel under
	// conservative time windows, bit-identical to the single-kernel run
	// (0/1 = single kernel). Requests degrade back to one kernel — recorded
	// in Result.Kernels/KernelNote — when the run cannot be parallelised
	// deterministically (tracing, or a latency model without a provable
	// lookahead; note RunSpec programs count as serial-only when they use
	// Proc.Rand — declare via SerialOnly). There is nothing else to tune:
	// Result.WindowStats reports what the window machinery did.
	Kernels int
	// Partition selects the node→shard policy: "blocks" (locality-aware,
	// default) or "round-robin".
	Partition string
	// LocalityGroup hints the affinity-group size for the blocks policy.
	LocalityGroup int
	// SerialOnly declares the programs draw from Proc.Rand (or share Go
	// state across processes); such runs execute on one kernel.
	SerialOnly bool
	// Faults installs a deterministic fault-injection schedule: timed link
	// cuts/heals, node crashes/restarts, and per-kind message-drop
	// probabilities, replayed bit-identically for a given Seed at any
	// kernel count. Operations against unreachable peers retry with
	// exponential backoff and ultimately fail with ErrUnreachable. Nil runs
	// fault-free (see internal/fault's package docs for the full model).
	Faults *FaultSchedule
	// Trace enables execution tracing (required for GroundTruthOf).
	Trace bool
	// Label tags the run.
	Label string
	// Setup allocates shared variables before the run.
	Setup func(c *Cluster) error
	// Program runs SPMD on every process (exclusive with Programs).
	Program Program
	// Programs supplies one program per process.
	Programs []Program
}

// build constructs the cluster and program list for the spec.
func (s RunSpec) build() (*Cluster, []Program, error) {
	det, err := NewDetector(s.Detector)
	if err != nil {
		return nil, nil, err
	}
	rcfg := rdma.DefaultConfig(det, nil)
	switch s.Protocol {
	case "", "piggyback":
	case "literal":
		rcfg.Protocol = rdma.ProtocolLiteral
	default:
		return nil, nil, fmt.Errorf("dsmrace: unknown protocol %q", s.Protocol)
	}
	coh, err := coherence.FromName(s.Coherence)
	if err != nil {
		return nil, nil, fmt.Errorf("dsmrace: %w", err)
	}
	rcfg.Coherence = coh
	switch s.Granularity {
	case "", "area":
	case "node":
		rcfg.Granularity = rdma.GranularityNode
	case "word":
		rcfg.Granularity = rdma.GranularityWord
	default:
		return nil, nil, fmt.Errorf("dsmrace: unknown granularity %q", s.Granularity)
	}
	lat := s.Latency
	if lat == nil {
		lat = network.DefaultIB()
	}
	if s.Jitter > 0 {
		lat = network.Jitter{Base: lat, Frac: s.Jitter}
	}
	c, err := dsm.New(dsm.Config{
		Procs:         s.Procs,
		Seed:          s.Seed,
		Latency:       lat,
		RDMA:          rcfg,
		Trace:         s.Trace,
		Label:         s.Label,
		Kernels:       s.Kernels,
		Partition:     s.Partition,
		LocalityGroup: s.LocalityGroup,
		SerialOnly:    s.SerialOnly,
		Faults:        s.Faults,
	})
	if err != nil {
		return nil, nil, err
	}
	if s.Setup != nil {
		if err := s.Setup(c); err != nil {
			return nil, nil, err
		}
	}
	progs := s.Programs
	if progs == nil {
		if s.Program == nil {
			return nil, nil, fmt.Errorf("dsmrace: RunSpec needs Program or Programs")
		}
		progs = make([]Program, s.Procs)
		for i := range progs {
			progs[i] = s.Program
		}
	}
	if len(progs) != s.Procs {
		return nil, nil, fmt.Errorf("dsmrace: %d programs for %d procs", len(progs), s.Procs)
	}
	return c, progs, nil
}

// Run executes the spec and returns the result.
func Run(spec RunSpec) (*Result, error) {
	c, progs, err := spec.build()
	if err != nil {
		return nil, err
	}
	res, err := c.RunEach(progs)
	if err != nil {
		return res, err
	}
	return res, res.FirstError()
}

// Model-checker types re-exported from internal/mcheck: exhaustive
// schedule enumeration of tiny litmus configurations with memory-model
// axiom checking (see the internal/mcheck package docs for the model).
type (
	// McheckOutcome summarises one exhaustive exploration: schedule and
	// dedup counts plus per-axiom verdicts.
	McheckOutcome = mcheck.Outcome
	// McheckLitmus is one tiny configuration to explore.
	McheckLitmus = mcheck.Litmus
	// McheckLevel is a memory-consistency level (coherent < causal < SC).
	McheckLevel = mcheck.Level
)

// Memory-consistency levels re-exported for reading McheckOutcome verdicts.
const (
	McheckLevelNone     = mcheck.LevelNone
	McheckLevelCoherent = mcheck.LevelCoherent
	McheckLevelCausal   = mcheck.LevelCausal
	McheckLevelSC       = mcheck.LevelSC
)

// McheckLitmusNames lists the canned litmus configurations.
func McheckLitmusNames() []string {
	lits := mcheck.Litmuses()
	names := make([]string, len(lits))
	for i, l := range lits {
		names[i] = l.Name
	}
	return names
}

// mcheckProtocol resolves a protocol selector for Mcheck: a stock coherence
// name (per CoherenceNames) or a seeded mutation name (per
// coherence.MutantNames) for oracle-validation runs.
func mcheckProtocol(name string) (coherence.Protocol, error) {
	p, err := coherence.FromName(name)
	if err == nil {
		return p, nil
	}
	if m, merr := coherence.NewMutant(name); merr == nil {
		return m, nil
	}
	return nil, fmt.Errorf("dsmrace: unknown mcheck protocol %q (want one of %v or a mutation %v)",
		name, CoherenceNames(), coherence.MutantNames())
}

// Mcheck exhaustively enumerates every distinguishable schedule of the named
// litmus under the named coherence protocol (stock or seeded-mutation) and
// classifies each against the SC, causal and coherence axioms. maxRuns <= 0
// uses the default budget; exceeding the budget is an error, never a silent
// truncation.
func Mcheck(litmus, protocol string, maxRuns int) (*McheckOutcome, error) {
	lit, err := mcheck.LitmusByName(litmus)
	if err != nil {
		return nil, err
	}
	p, err := mcheckProtocol(protocol)
	if err != nil {
		return nil, err
	}
	cfg := mcheck.Config{Litmus: lit, Protocol: p}
	if maxRuns > 0 {
		cfg.MaxRuns = maxRuns
	}
	return mcheck.Explore(cfg)
}

// McheckOptions parameterises McheckExplore beyond the Mcheck defaults.
type McheckOptions struct {
	// MaxRuns bounds runs attempted (not unique schedules); <= 0 uses the
	// default budget. Exceeding it is an error, never a silent truncation.
	MaxRuns int
	// POR enables dynamic partial-order reduction and state-fingerprint
	// memoization: far fewer runs, provably identical unique-terminal-state
	// set and verdicts.
	POR bool
	// Workers sets the exploration pool size (0 = GOMAXPROCS). The outcome
	// is bit-identical for every value.
	Workers int
}

// McheckExplore is Mcheck with the exploration knobs exposed: partial-order
// reduction, worker-pool size, and the run budget.
func McheckExplore(litmus, protocol string, opt McheckOptions) (*McheckOutcome, error) {
	lit, err := mcheck.LitmusByName(litmus)
	if err != nil {
		return nil, err
	}
	p, err := mcheckProtocol(protocol)
	if err != nil {
		return nil, err
	}
	cfg := mcheck.Config{Litmus: lit, Protocol: p, POR: opt.POR, Workers: opt.Workers}
	if opt.MaxRuns > 0 {
		cfg.MaxRuns = opt.MaxRuns
	}
	return mcheck.Explore(cfg)
}

// GroundTruthOf computes the exact race set of a traced run.
func GroundTruthOf(res *Result) (*GroundTruth, error) {
	if res.Trace == nil {
		return nil, fmt.Errorf("dsmrace: run was not traced (set RunSpec.Trace)")
	}
	return verify.GroundTruth(res.Trace, verify.DefaultOptions()), nil
}

// ScoreDetector compares a run's reports against exact ground truth.
func ScoreDetector(res *Result, name string) (Score, error) {
	truth, err := GroundTruthOf(res)
	if err != nil {
		return Score{}, err
	}
	return verify.ScoreReports(truth, name, res.Races), nil
}
