package workload

import (
	"fmt"

	"dsmrace/internal/dsm"
	"dsmrace/internal/memory"
)

// RaceProfile declares what a workload's synchronisation structure implies.
type RaceProfile int

// Race profiles.
const (
	// RaceFree means exact ground truth must be empty.
	RaceFree RaceProfile = iota
	// RacyBenign means races exist by design and the result is still correct.
	RacyBenign
	// RacyBug means races exist and corrupt the result on some schedules.
	RacyBug
)

// String names the profile.
func (r RaceProfile) String() string {
	switch r {
	case RaceFree:
		return "race-free"
	case RacyBenign:
		return "racy-benign"
	default:
		return "racy-bug"
	}
}

// Workload couples shared-variable setup with per-process programs.
type Workload struct {
	// Name identifies the workload in tables.
	Name string
	// Procs is the process count the workload was built for.
	Procs int
	// Profile is the expected race profile.
	Profile RaceProfile
	// Setup allocates the shared variables.
	Setup func(c *dsm.Cluster) error
	// Programs returns one program per process.
	Programs func() []dsm.Program
	// Check validates the final memory state (nil = no check).
	Check func(res *dsm.Result) error
	// SharedRand declares that the programs draw from the shared simulation
	// RNG (Proc.Rand) mid-run. Such runs are serial-only: the draw order is
	// the serial interleaving itself, so a multi-kernel request degrades to
	// one kernel (Run forwards this as dsm.Config.SerialOnly).
	SharedRand bool
	// LocalityGroup is the affinity-group size hint for locality-aware
	// node partitioning: nodes [g*group, (g+1)*group) communicate mostly
	// among themselves (0 = no affinity structure).
	LocalityGroup int
}

// Run builds a cluster from cfg (Procs is overridden), applies Setup and
// executes the workload.
func (w Workload) Run(cfg dsm.Config) (*dsm.Result, error) {
	cfg.Procs = w.Procs
	if cfg.Label == "" {
		cfg.Label = w.Name
	}
	if w.SharedRand {
		cfg.SerialOnly = true
	}
	if cfg.LocalityGroup == 0 {
		cfg.LocalityGroup = w.LocalityGroup
	}
	c, err := dsm.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Setup(c); err != nil {
		return nil, err
	}
	res, err := c.RunEach(w.Programs())
	if err != nil {
		return res, err
	}
	if err := res.FirstError(); err != nil {
		return res, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	if w.Check != nil {
		if err := w.Check(res); err != nil {
			return res, fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return res, nil
}

// spmd replicates one program across n processes.
func spmd(n int, prog dsm.Program) func() []dsm.Program {
	return func() []dsm.Program {
		ps := make([]dsm.Program, n)
		for i := range ps {
			ps[i] = prog
		}
		return ps
	}
}

// RandomSpec parameterises the randomized workload.
type RandomSpec struct {
	Procs int
	// Areas is the number of shared variables (round-robin homed).
	Areas int
	// AreaWords is each variable's size.
	AreaWords int
	// OpsPerProc is the number of operations each process issues.
	OpsPerProc int
	// ReadPercent in [0,100] selects gets vs puts.
	ReadPercent int
	// LockDiscipline wraps every access in the area's lock (making the
	// workload race-free).
	LockDiscipline bool
	// BarrierEvery inserts a barrier after this many operations (0 = never).
	BarrierEvery int
}

// Random builds the randomized mixed access workload.
func Random(spec RandomSpec) Workload {
	if spec.Areas <= 0 {
		spec.Areas = 4
	}
	if spec.AreaWords <= 0 {
		spec.AreaWords = 4
	}
	profile := RacyBenign
	if spec.LockDiscipline {
		profile = RaceFree
	}
	// Precomputed names: the op loop resolves an area per operation, and a
	// Sprintf there is a measurable share of benchmark allocations.
	names := make([]string, spec.Areas)
	for i := range names {
		names[i] = fmt.Sprintf("rand%d", i)
	}
	areaName := func(i int) string { return names[i] }
	return Workload{
		Name:       fmt.Sprintf("random-r%d", spec.ReadPercent),
		Procs:      spec.Procs,
		Profile:    profile,
		SharedRand: true,
		Setup: func(c *dsm.Cluster) error {
			for i := 0; i < spec.Areas; i++ {
				if err := c.Alloc(areaName(i), i%spec.Procs, spec.AreaWords); err != nil {
					return err
				}
			}
			return nil
		},
		Programs: spmd(spec.Procs, func(p *dsm.Proc) error {
			for i := 0; i < spec.OpsPerProc; i++ {
				name := areaName(p.Rand().Intn(spec.Areas))
				off := p.Rand().Intn(spec.AreaWords)
				if spec.LockDiscipline {
					if err := p.Lock(name); err != nil {
						return err
					}
				}
				var err error
				if p.Rand().Intn(100) < spec.ReadPercent {
					_, err = p.GetWord(name, off)
				} else {
					err = p.Put(name, off, memory.Word(i))
				}
				if spec.LockDiscipline {
					if uerr := p.Unlock(name); uerr != nil && err == nil {
						err = uerr
					}
				}
				if err != nil {
					return err
				}
				if spec.BarrierEvery > 0 && (i+1)%spec.BarrierEvery == 0 {
					p.Barrier()
				}
			}
			return nil
		}),
	}
}

// MasterWorker is the paper's §IV-D example: workers race on purpose while
// delivering results to the master; the race must be signalled but the run
// must complete with a correct total (signal-don't-abort, E-T5).
func MasterWorker(procs, tasksPerWorker int) Workload {
	expected := memory.Word((procs - 1) * tasksPerWorker)
	return Workload{
		Name:    "master-worker",
		Procs:   procs,
		Profile: RacyBenign,
		Setup: func(c *dsm.Cluster) error {
			return c.Alloc("mw.results", 0, 1)
		},
		Programs: spmd(procs, func(p *dsm.Proc) error {
			if p.ID() == 0 {
				p.Barrier()
				got, err := p.GetWord("mw.results", 0)
				if err != nil {
					return err
				}
				if got != expected {
					return fmt.Errorf("master collected %d, want %d", got, expected)
				}
				return nil
			}
			for t := 0; t < tasksPerWorker; t++ {
				// Simulate work, then deliver the result: all workers add
				// into the same cell with no mutual synchronisation.
				p.Sleep(100)
				if _, err := p.FetchAdd("mw.results", 0, 1); err != nil {
					return err
				}
			}
			p.Barrier()
			return nil
		}),
		Check: func(res *dsm.Result) error {
			if got := res.Memory[0][0]; got != expected {
				return fmt.Errorf("results cell = %d, want %d", got, expected)
			}
			return nil
		},
	}
}

// Stencil1D is a barrier-phased halo exchange over per-process segment
// areas: each iteration every process updates its segment from its
// neighbours' boundary cells. Race-free by construction.
func Stencil1D(procs, widthPerProc, iters int) Workload {
	seg := func(i int) string { return fmt.Sprintf("seg%d", i) }
	return Workload{
		Name:    "stencil1d",
		Procs:   procs,
		Profile: RaceFree,
		Setup: func(c *dsm.Cluster) error {
			for i := 0; i < procs; i++ {
				if err := c.Alloc(seg(i), i, widthPerProc); err != nil {
					return err
				}
			}
			return nil
		},
		Programs: spmd(procs, func(p *dsm.Proc) error {
			mine := seg(p.ID())
			left := seg((p.ID() + p.N() - 1) % p.N())
			right := seg((p.ID() + 1) % p.N())
			// Initialise the segment to the process id.
			vals := make([]memory.Word, widthPerProc)
			for i := range vals {
				vals[i] = memory.Word(p.ID())
			}
			if err := p.Put(mine, 0, vals...); err != nil {
				return err
			}
			p.Barrier()
			for it := 0; it < iters; it++ {
				lv, err := p.GetWord(left, widthPerProc-1)
				if err != nil {
					return err
				}
				rv, err := p.GetWord(right, 0)
				if err != nil {
					return err
				}
				cur, err := p.Get(mine, 0, widthPerProc)
				if err != nil {
					return err
				}
				next := make([]memory.Word, widthPerProc)
				for i := range next {
					l, r := lv, rv
					if i > 0 {
						l = cur[i-1]
					}
					if i < widthPerProc-1 {
						r = cur[i+1]
					}
					next[i] = (l + cur[i] + r) / 3
				}
				// Everyone finishes reading before anyone writes the next
				// generation, and vice versa.
				p.Barrier()
				if err := p.Put(mine, 0, next...); err != nil {
					return err
				}
				p.Barrier()
			}
			return nil
		}),
	}
}

// StencilBuggy is Stencil1D with the read/write barrier removed — the
// classic forgotten-barrier bug: neighbours may read a segment while its
// owner overwrites it. Races must be reported.
func StencilBuggy(procs, widthPerProc, iters int) Workload {
	w := Stencil1D(procs, widthPerProc, iters)
	seg := func(i int) string { return fmt.Sprintf("seg%d", i) }
	w.Name = "stencil1d-buggy"
	w.Profile = RacyBug
	w.Programs = spmd(procs, func(p *dsm.Proc) error {
		mine := seg(p.ID())
		left := seg((p.ID() + p.N() - 1) % p.N())
		right := seg((p.ID() + 1) % p.N())
		vals := make([]memory.Word, widthPerProc)
		for i := range vals {
			vals[i] = memory.Word(p.ID())
		}
		if err := p.Put(mine, 0, vals...); err != nil {
			return err
		}
		p.Barrier()
		for it := 0; it < iters; it++ {
			lv, err := p.GetWord(left, widthPerProc-1)
			if err != nil {
				return err
			}
			rv, err := p.GetWord(right, 0)
			if err != nil {
				return err
			}
			cur, err := p.Get(mine, 0, widthPerProc)
			if err != nil {
				return err
			}
			next := make([]memory.Word, widthPerProc)
			for i := range next {
				l, r := lv, rv
				if i > 0 {
					l = cur[i-1]
				}
				if i < widthPerProc-1 {
					r = cur[i+1]
				}
				next[i] = (l + cur[i] + r) / 3
			}
			// BUG: no barrier — writes race with neighbours' reads.
			if err := p.Put(mine, 0, next...); err != nil {
				return err
			}
		}
		return nil
	})
	w.Check = nil
	return w
}

// Histogram has every process scatter increments over shared bins.
// Atomic FetchAdds keep the totals exact; the races are benign by design.
func Histogram(procs, bins, updatesPerProc int) Workload {
	return Workload{
		Name:       "histogram",
		Procs:      procs,
		Profile:    RacyBenign,
		SharedRand: true,
		Setup: func(c *dsm.Cluster) error {
			for b := 0; b < bins; b++ {
				if err := c.Alloc(fmt.Sprintf("bin%d", b), b%procs, 1); err != nil {
					return err
				}
			}
			return nil
		},
		Programs: spmd(procs, func(p *dsm.Proc) error {
			for i := 0; i < updatesPerProc; i++ {
				b := p.Rand().Intn(bins)
				if _, err := p.FetchAdd(fmt.Sprintf("bin%d", b), 0, 1); err != nil {
					return err
				}
			}
			return nil
		}),
		Check: func(res *dsm.Result) error {
			var total memory.Word
			for b := 0; b < bins; b++ {
				total += res.Memory[b%procs][b/procs]
			}
			if total != memory.Word(procs*updatesPerProc) {
				return fmt.Errorf("histogram total = %d, want %d", total, procs*updatesPerProc)
			}
			return nil
		},
	}
}

// HistogramRacy uses read-modify-write without atomics or locks: updates
// can be lost (a real bug the detector must flag).
func HistogramRacy(procs, bins, updatesPerProc int) Workload {
	w := Histogram(procs, bins, updatesPerProc)
	w.Name = "histogram-racy"
	w.Profile = RacyBug
	w.Programs = spmd(procs, func(p *dsm.Proc) error {
		for i := 0; i < updatesPerProc; i++ {
			b := p.Rand().Intn(bins)
			name := fmt.Sprintf("bin%d", b)
			v, err := p.GetWord(name, 0)
			if err != nil {
				return err
			}
			if err := p.Put(name, 0, v+1); err != nil {
				return err
			}
		}
		return nil
	})
	w.Check = nil // totals may legitimately be lost
	return w
}

// ProducerConsumer moves items through a lock-protected shared queue of
// head/tail/slots. Race-free under the lock discipline.
func ProducerConsumer(pairs, itemsPerPair int) Workload {
	procs := 2 * pairs
	cap := itemsPerPair * pairs
	return Workload{
		Name:    "prodcons",
		Procs:   procs,
		Profile: RaceFree,
		Setup: func(c *dsm.Cluster) error {
			// One queue: [head, tail, slots...]
			return c.Alloc("queue", 0, 2+cap)
		},
		Programs: spmd(procs, func(p *dsm.Proc) error {
			producer := p.ID() < pairs
			if producer {
				for i := 0; i < itemsPerPair; i++ {
					item := memory.Word(p.ID()*itemsPerPair + i + 1)
					for {
						if err := p.Lock("queue"); err != nil {
							return err
						}
						hd, err1 := p.GetWord("queue", 0)
						tl, err2 := p.GetWord("queue", 1)
						if err1 != nil || err2 != nil {
							p.Unlock("queue")
							return fmt.Errorf("queue read: %v %v", err1, err2)
						}
						if int(tl-hd) < cap {
							if err := p.Put("queue", 2+int(tl)%cap, item); err != nil {
								p.Unlock("queue")
								return err
							}
							if err := p.Put("queue", 1, tl+1); err != nil {
								p.Unlock("queue")
								return err
							}
							if err := p.Unlock("queue"); err != nil {
								return err
							}
							break
						}
						if err := p.Unlock("queue"); err != nil {
							return err
						}
						p.Sleep(500)
					}
				}
				return nil
			}
			// Consumer: drain itemsPerPair items.
			got := 0
			for got < itemsPerPair {
				if err := p.Lock("queue"); err != nil {
					return err
				}
				hd, err1 := p.GetWord("queue", 0)
				tl, err2 := p.GetWord("queue", 1)
				if err1 != nil || err2 != nil {
					p.Unlock("queue")
					return fmt.Errorf("queue read: %v %v", err1, err2)
				}
				if hd < tl {
					v, err := p.GetWord("queue", 2+int(hd)%cap)
					if err != nil {
						p.Unlock("queue")
						return err
					}
					if v == 0 {
						p.Unlock("queue")
						return fmt.Errorf("consumed empty slot")
					}
					if err := p.Put("queue", 0, hd+1); err != nil {
						p.Unlock("queue")
						return err
					}
					got++
				}
				if err := p.Unlock("queue"); err != nil {
					return err
				}
				if hd == tl {
					p.Sleep(500)
				}
			}
			return nil
		}),
	}
}

// Migratory is the classic ownership-migration pattern the coherence
// protocols genuinely diverge on: one lock-protected shared object homed on
// node 0 migrates between processes. Every process repeatedly locks the
// object, reads all of it, increments every word and writes it back — so
// the object's freshest copy hops from critical section to critical
// section. Race-free (every conflicting access is under the object's lock)
// with a schedule-independent per-process access stream, which makes it
// valid for the protocol equivalence suite and the determinism
// fingerprints.
//
// Write-update moves exactly the requested words twice per critical section
// (get + put). Write-invalidate adds a whole-area fetch for the incoming
// owner plus an invalidation round trip evicting the previous owner's copy,
// and its cached copy is always stale by the time the lock is re-acquired —
// migration is write-update's best case and write-invalidate's worst
// (measured in E-T12 and the E_Coherence benchmarks).
func Migratory(procs, rounds, words int) Workload {
	expected := memory.Word(procs * rounds)
	return Workload{
		Name:    "migratory",
		Procs:   procs,
		Profile: RaceFree,
		Setup: func(c *dsm.Cluster) error {
			return c.Alloc("mig.obj", 0, words)
		},
		Programs: spmd(procs, func(p *dsm.Proc) error {
			for r := 0; r < rounds; r++ {
				if err := p.Lock("mig.obj"); err != nil {
					return err
				}
				cur, err := p.Get("mig.obj", 0, words)
				if err != nil {
					p.Unlock("mig.obj")
					return err
				}
				for i := range cur {
					cur[i]++
				}
				if err := p.Put("mig.obj", 0, cur...); err != nil {
					p.Unlock("mig.obj")
					return err
				}
				if err := p.Unlock("mig.obj"); err != nil {
					return err
				}
			}
			return nil
		}),
		Check: func(res *dsm.Result) error {
			for w := 0; w < words; w++ {
				if got := res.Memory[0][w]; got != expected {
					return fmt.Errorf("object word %d = %d, want %d", w, got, expected)
				}
			}
			return nil
		},
	}
}

// MigratoryGroups partitions the cluster into independent migratory rings:
// procs are split into ⌈procs/groupSize⌉ groups, and each group lock-passes
// its own shared object (homed on the group's first node) exactly as
// Migratory does. There is no cross-group synchronisation and no global
// barrier, so a process's vector clock only ever gains components from its
// own group — the workload stays clock-sparse at any cluster size, which is
// the communication structure large clusters actually exhibit (and what the
// dirty-masked clock representation exploits). Race-free.
func MigratoryGroups(procs, groupSize, rounds, words int) Workload {
	if groupSize <= 0 || groupSize > procs {
		groupSize = procs
	}
	groups := (procs + groupSize - 1) / groupSize
	obj := func(g int) string { return fmt.Sprintf("mig.grp%d", g) }
	groupOf := func(id int) int { return id / groupSize }
	membersOf := func(g int) int {
		m := procs - g*groupSize
		if m > groupSize {
			m = groupSize
		}
		return m
	}
	return Workload{
		Name:          "migratory-groups",
		Procs:         procs,
		Profile:       RaceFree,
		LocalityGroup: groupSize,
		Setup: func(c *dsm.Cluster) error {
			for g := 0; g < groups; g++ {
				if err := c.Alloc(obj(g), g*groupSize, words); err != nil {
					return err
				}
			}
			return nil
		},
		Programs: spmd(procs, func(p *dsm.Proc) error {
			name := obj(groupOf(p.ID()))
			for r := 0; r < rounds; r++ {
				if err := p.Lock(name); err != nil {
					return err
				}
				cur, err := p.Get(name, 0, words)
				if err != nil {
					p.Unlock(name)
					return err
				}
				for i := range cur {
					cur[i]++
				}
				if err := p.Put(name, 0, cur...); err != nil {
					p.Unlock(name)
					return err
				}
				if err := p.Unlock(name); err != nil {
					return err
				}
			}
			return nil
		}),
		Check: func(res *dsm.Result) error {
			for g := 0; g < groups; g++ {
				want := memory.Word(membersOf(g) * rounds)
				for w := 0; w < words; w++ {
					if got := res.Memory[g*groupSize][w]; got != want {
						return fmt.Errorf("group %d word %d = %d, want %d", g, w, got, want)
					}
				}
			}
			return nil
		},
	}
}

// ProducerConsumerChain is a ring of single-producer/single-consumer
// buffers: stage i produces into chain (i+1)%n — homed on node i, so every
// write is producer-local — and consumes chain i from its upstream
// neighbour's memory, re-reading it rereads times per round (validate,
// transform, checksum passes). Barrier-phased and race-free with a
// schedule-independent access stream.
//
// The divergence mirror image of Migratory: write-invalidate serves every
// re-read after the first from the consumer's cached copy, while
// write-update pays a full round trip per re-read — repeated reads are
// write-invalidate's best case.
func ProducerConsumerChain(stages, rounds, words, rereads int) Workload {
	if rereads < 1 {
		rereads = 1
	}
	chain := func(i int) string { return fmt.Sprintf("chain%d", i) }
	return Workload{
		Name:    "prodchain",
		Procs:   stages,
		Profile: RaceFree,
		Setup: func(c *dsm.Cluster) error {
			for j := 0; j < stages; j++ {
				// chain j is written by stage (j-1+stages)%stages: home it there.
				if err := c.Alloc(chain(j), (j-1+stages)%stages, words); err != nil {
					return err
				}
			}
			return nil
		},
		Programs: spmd(stages, func(p *dsm.Proc) error {
			in := chain(p.ID())
			out := chain((p.ID() + 1) % p.N())
			// Seed the ring: every stage publishes its id downstream.
			vals := make([]memory.Word, words)
			for i := range vals {
				vals[i] = memory.Word(p.ID())
			}
			if err := p.Put(out, 0, vals...); err != nil {
				return err
			}
			p.Barrier()
			for r := 0; r < rounds; r++ {
				var cur []memory.Word
				for k := 0; k < rereads; k++ {
					var err error
					if cur, err = p.Get(in, 0, words); err != nil {
						return err
					}
				}
				// Everyone finishes consuming round r's input before anyone
				// overwrites it with round r+1's output.
				p.Barrier()
				for i := range cur {
					cur[i]++
				}
				if err := p.Put(out, 0, cur...); err != nil {
					return err
				}
				p.Barrier()
			}
			return nil
		}),
		Check: func(res *dsm.Result) error {
			// chain j's final value telescopes: it was seeded on ring position
			// (j-1-rounds) mod stages and incremented once per round.
			for j := 0; j < stages; j++ {
				home := (j - 1 + stages) % stages
				seed := ((j-1-rounds)%stages + stages) % stages
				want := memory.Word(seed + rounds)
				for w := 0; w < words; w++ {
					if got := res.Memory[home][w]; got != want {
						return fmt.Errorf("chain%d word %d = %d, want %d", j, w, got, want)
					}
				}
			}
			return nil
		},
	}
}

// Pipeline passes a token around the ring using data cells and polled
// flags. Flag polling is synchronisation-via-race (like a relaxed atomic
// spin): the detector must flag the flag cells. The data cells, however,
// are ordered through the flag's reads-from edge — data put happens-before
// flag put (program order), and the poller absorbs the flag's write clock
// before touching the data — so the data traffic must stay clean. The test
// suite asserts exactly that split.
func Pipeline(procs, rounds int) Workload {
	data := func(i int) string { return fmt.Sprintf("pipe.data%d", i) }
	flag := func(i int) string { return fmt.Sprintf("pipe.flag%d", i) }
	return Workload{
		Name:    "pipeline",
		Procs:   procs,
		Profile: RacyBenign,
		Setup: func(c *dsm.Cluster) error {
			for i := 0; i < procs; i++ {
				if err := c.Alloc(data(i), i, 1); err != nil {
					return err
				}
				if err := c.Alloc(flag(i), i, 1); err != nil {
					return err
				}
			}
			return nil
		},
		Programs: spmd(procs, func(p *dsm.Proc) error {
			next := (p.ID() + 1) % p.N()
			for r := 0; r < rounds; r++ {
				round := memory.Word(r + 1)
				if p.ID() == 0 {
					// Inject the token, then wait for it to come back.
					if err := p.Put(data(next), 0, round*100); err != nil {
						return err
					}
					if err := p.Put(flag(next), 0, round); err != nil {
						return err
					}
					for {
						v, err := p.GetWord(flag(0), 0)
						if err != nil {
							return err
						}
						if v == round {
							break
						}
						p.Sleep(2000)
					}
					tok, err := p.GetWord(data(0), 0)
					if err != nil {
						return err
					}
					if tok != round*100+memory.Word(p.N()-1) {
						return fmt.Errorf("round %d: token %d, want %d", r, tok, round*100+memory.Word(p.N()-1))
					}
					continue
				}
				// Wait for the token, increment, forward.
				for {
					v, err := p.GetWord(flag(p.ID()), 0)
					if err != nil {
						return err
					}
					if v == round {
						break
					}
					p.Sleep(2000)
				}
				tok, err := p.GetWord(data(p.ID()), 0)
				if err != nil {
					return err
				}
				if err := p.Put(data(next), 0, tok+1); err != nil {
					return err
				}
				if err := p.Put(flag(next), 0, round); err != nil {
					return err
				}
			}
			return nil
		}),
	}
}
