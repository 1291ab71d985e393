package dsm

import (
	"fmt"
	"math/rand"
	"sort"

	"dsmrace/internal/core"
	"dsmrace/internal/memory"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// Proc is one process's handle onto the cluster: its identity, its vector
// clock (ticked before every operation, update_local_clock), and the
// blocking operation API backed by its NIC.
type Proc struct {
	id int
	c  *Cluster
	sp *sim.Proc
	// clocks records that some consumer reads clocks (rdma.System.ClocksOn).
	// Without one the run is uninstrumented: clock stays nil and nothing
	// ticks, merges or ships it.
	clocks bool
	clock  vclock.Masked
	seq    uint64
	held   []int // sorted area ids of held user locks
	// lastName/lastArea memoise the most recent name resolution.
	lastName string
	lastArea memory.Area
	// literal records whether the run uses the literal wire protocol, whose
	// one-way clock messages outlive the issuing operation and therefore
	// need fresh copies; the piggyback protocol lets accesses alias the
	// process clock and held-lock list directly (see newAccess).
	literal bool

	epoch       int
	barrierDone bool

	// Fault-layer state (Config.Faults): crashed marks the node down in the
	// current schedule; restarted latches true at the first restart, waking
	// AwaitRestart.
	crashed   bool
	restarted bool
}

// ID returns the process id (also its node id).
func (p *Proc) ID() int { return p.id }

// N returns the number of processes in the cluster.
func (p *Proc) N() int { return p.c.cfg.Procs }

// Now returns the current virtual time.
func (p *Proc) Now() sim.Time { return p.sp.Now() }

// Rand returns the deterministic simulation random source. On a
// multi-kernel cluster the shared source is only drawable by serial-only
// runs (Config.SerialOnly — which forces one kernel), so a draw here under
// Kernels>1 panics with that instruction rather than silently breaking
// determinism.
func (p *Proc) Rand() *rand.Rand { return p.c.kernelFor(p.id).Rand() }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d sim.Time) { p.sp.Sleep(d) }

// Yield lets other ready processes run at the current instant.
func (p *Proc) Yield() { p.sp.Yield() }

// Clock returns a copy of the process's current vector clock — empty on an
// uninstrumented run (no detector, no tracing), which keeps none.
func (p *Proc) Clock() vclock.VC { return p.clock.V.Copy() }

// Seq returns the per-process operation sequence number of the most recent
// operation.
func (p *Proc) Seq() uint64 { return p.seq }

// Area resolves a shared variable name (compile-time address resolution).
// A one-entry memo captures the dominant pattern — lock, access, unlock on
// the same variable — so two of the three resolutions are a pointer-equal
// string compare instead of a hash-and-probe.
func (p *Proc) Area(name string) (memory.Area, error) {
	if name == p.lastName {
		return p.lastArea, nil
	}
	a, err := p.c.space.Lookup(name)
	if err == nil {
		p.lastName, p.lastArea = name, a
	}
	return a, err
}

// newAccess ticks the local clock and stamps a new access descriptor.
func (p *Proc) newAccess(kind core.AccessKind) core.Access {
	p.seq++
	if !p.clocks {
		// Uninstrumented: nothing reads an access's clock or lock set.
		return core.Access{Proc: p.id, Seq: p.seq, Kind: kind}
	}
	p.clock.Tick(p.id)
	// Under the piggyback protocol the access aliases the process's clock and
	// held-lock list; the literal protocol's one-way messages outlive the
	// operation, so it snapshots both (ARCHITECTURE.md, "Who owns the bytes").
	snap, locks := p.clock, p.held
	if p.literal {
		snap, locks = p.clock.Copy(), append([]int(nil), locks...)
	}
	if len(locks) == 0 {
		locks = nil
	}
	return core.Access{Proc: p.id, Seq: p.seq, Kind: kind, Clock: snap.V, ClockNZ: snap.M, Locks: locks}
}

// absorb merges a piggybacked reply clock into the process clock and
// returns the buffer to the RDMA system's pool — the operation that handed
// it out is complete and nothing else references it.
func (p *Proc) absorb(clk vclock.Masked) {
	if !clk.IsNil() {
		p.clock.Merge(clk)
		p.c.sys.NIC(p.id).ReleaseClock(clk)
	}
}

// absorbDominant installs a reply clock known to dominate the process's
// current clock, collapsing the merge to a buffer swap. A write ack's
// piggybacked clock qualifies: it is the area clock *after* the home merged
// in the very clock K this process sent — V' = max(V, K) (+ home tick) ≥ K —
// and the process was parked for the whole round trip, so its clock still
// equals K and max(K, V') is V' verbatim. The process adopts the reply
// buffer and recycles its old clock: by reply time nothing else references
// either (ARCHITECTURE.md, "Who owns the bytes").
func (p *Proc) absorbDominant(clk vclock.Masked) {
	if clk.IsNil() {
		return
	}
	if clk.Len() == p.clock.Len() {
		p.clock, clk = clk, p.clock
	} else {
		p.clock = clk.CopyInto(p.clock)
	}
	p.c.sys.NIC(p.id).ReleaseClock(clk)
}

// Put writes vals into the shared variable name starting at word offset off
// (a one-sided remote write; the home process is not involved).
func (p *Proc) Put(name string, off int, vals ...memory.Word) error {
	a, err := p.Area(name)
	if err != nil {
		return err
	}
	absorb, err := p.c.sys.NIC(p.id).Put(p.sp, a, off, vals, p.newAccess(core.Write))
	p.absorbDominant(absorb)
	return err
}

// Get reads count words from the shared variable name at word offset off.
func (p *Proc) Get(name string, off, count int) ([]memory.Word, error) {
	a, err := p.Area(name)
	if err != nil {
		return nil, err
	}
	data, absorb, err := p.c.sys.NIC(p.id).Get(p.sp, a, off, count, p.newAccess(core.Read))
	p.absorb(absorb)
	return data, err
}

// GetWord reads a single word.
func (p *Proc) GetWord(name string, off int) (memory.Word, error) {
	a, err := p.Area(name)
	if err != nil {
		return 0, err
	}
	w, absorb, err := p.c.sys.NIC(p.id).GetWord(p.sp, a, off, p.newAccess(core.Read))
	p.absorb(absorb)
	return w, err
}

// FetchAdd atomically adds delta to a shared word, returning its previous
// value. Counts as a write for detection.
func (p *Proc) FetchAdd(name string, off int, delta memory.Word) (memory.Word, error) {
	a, err := p.Area(name)
	if err != nil {
		return 0, err
	}
	old, absorb, err := p.c.sys.NIC(p.id).FetchAdd(p.sp, a, off, delta, p.newAccess(core.Write))
	p.absorbDominant(absorb)
	return old, err
}

// CompareAndSwap atomically replaces a shared word when it equals expect;
// swapped reports whether the replacement happened.
func (p *Proc) CompareAndSwap(name string, off int, expect, repl memory.Word) (old memory.Word, swapped bool, err error) {
	a, err := p.Area(name)
	if err != nil {
		return 0, false, err
	}
	old, absorb, err := p.c.sys.NIC(p.id).CompareAndSwap(p.sp, a, off, expect, repl, p.newAccess(core.Write))
	p.absorbDominant(absorb)
	return old, err == nil && old == expect, err
}

// Lock acquires the NIC lock of the named area (§III-A: locks guarantee
// exclusive access to a memory area). Locks are granted FIFO and carry the
// previous releaser's clock, creating a happens-before edge.
func (p *Proc) Lock(name string) error {
	a, err := p.Area(name)
	if err != nil {
		return err
	}
	if p.clocks {
		p.clock.Tick(p.id)
	}
	rel, err := p.c.sys.NIC(p.id).LockArea(p.sp, a, p.id)
	if err != nil {
		return err
	}
	p.absorb(rel)
	idx := sort.SearchInts(p.held, int(a.ID))
	if idx == len(p.held) || p.held[idx] != int(a.ID) {
		p.held = append(p.held, 0)
		copy(p.held[idx+1:], p.held[idx:])
		p.held[idx] = int(a.ID)
	}
	return nil
}

// Unlock releases the named area's lock.
func (p *Proc) Unlock(name string) error {
	a, err := p.Area(name)
	if err != nil {
		return err
	}
	idx := sort.SearchInts(p.held, int(a.ID))
	if idx == len(p.held) || p.held[idx] != int(a.ID) {
		return fmt.Errorf("dsm: P%d unlocking %q which it does not hold", p.id, name)
	}
	p.held = append(p.held[:idx], p.held[idx+1:]...)
	nic := p.c.sys.NIC(p.id)
	// The release clock rides to the home in a pooled buffer; the home's
	// unlock handler adopts that buffer as the lock's release-clock slot
	// (recycling the previous slot buffer) and the next user-level grant
	// hands it onward — it re-enters the pool only after the acquirer
	// absorbs it. An uninstrumented run ships none, so the slot stays empty
	// and every grant is header-only.
	var rel vclock.Masked
	if p.clocks {
		p.clock.Tick(p.id)
		rel = p.clock.CopyInto(nic.GrabClock())
	}
	nic.UnlockArea(a, p.id, rel)
	return nil
}

// HeldLocks returns the area ids of the user locks currently held.
func (p *Proc) HeldLocks() []int { return append([]int(nil), p.held...) }

// Crashed reports whether this node is currently down in the fault schedule
// (always false without Config.Faults). A crashed node's operations fail
// with rdma.ErrUnreachable and its messages are dropped; fault-aware
// programs poll this and stop issuing (or AwaitRestart) when it flips.
func (p *Proc) Crashed() bool { return p.crashed }

// AwaitRestart parks the process until the fault schedule restarts its node.
// If the schedule never restarts it, the process stays parked and the run
// ends with a deadlock report naming it.
func (p *Proc) AwaitRestart() {
	p.sp.Await(&p.restarted, "crashed (await restart)")
}

// LocalWrite stores vals into this process's *private* memory. Remote
// processes can never reach it (Fig. 1).
func (p *Proc) LocalWrite(off int, vals ...memory.Word) error {
	return p.c.space.Node(p.id).WritePrivate(p.id, off, vals)
}

// LocalRead loads count words from this process's private memory.
func (p *Proc) LocalRead(off, count int) ([]memory.Word, error) {
	out := make([]memory.Word, count)
	if err := p.c.space.Node(p.id).ReadPrivate(p.id, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- Must variants: panic on error; the kernel converts the panic into a
// run error, which suits example programs and workload generators. ----

// MustPut is Put or panic.
func (p *Proc) MustPut(name string, off int, vals ...memory.Word) {
	if err := p.Put(name, off, vals...); err != nil {
		panic(err)
	}
}

// MustGet is Get or panic.
func (p *Proc) MustGet(name string, off, count int) []memory.Word {
	data, err := p.Get(name, off, count)
	if err != nil {
		panic(err)
	}
	return data
}

// MustGetWord is GetWord or panic.
func (p *Proc) MustGetWord(name string, off int) memory.Word {
	w, err := p.GetWord(name, off)
	if err != nil {
		panic(err)
	}
	return w
}

// MustFetchAdd is FetchAdd or panic.
func (p *Proc) MustFetchAdd(name string, off int, delta memory.Word) memory.Word {
	w, err := p.FetchAdd(name, off, delta)
	if err != nil {
		panic(err)
	}
	return w
}

// MustLock is Lock or panic.
func (p *Proc) MustLock(name string) {
	if err := p.Lock(name); err != nil {
		panic(err)
	}
}

// MustUnlock is Unlock or panic.
func (p *Proc) MustUnlock(name string) {
	if err := p.Unlock(name); err != nil {
		panic(err)
	}
}
