package dsm

import (
	"fmt"

	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/rdma"
	"dsmrace/internal/trace"
	"dsmrace/internal/vclock"
)

// ---- Barrier: a clock-merging global synchronisation point. All running
// processes must call Barrier the same number of times. The coordinator
// lives on node 0's NIC; arrivals carry each process's clock and releases
// carry the merge, so the barrier is a full happens-before exchange (which
// is what makes barrier-phased programs race-free under the detector). Both
// directions ride in pooled rdma.BarrierMsg records, and every release of an
// epoch shares the one merged clock the coordinator built for it. An
// uninstrumented run (rdma.System.ClocksOn false) builds no merged clock:
// arrivals and releases are header-only. ----

// barrierCoord collects the arrivals of the one open epoch: a process cannot
// enter the next epoch before this one has released it.
type barrierCoord struct {
	c      *Cluster
	epoch  int
	procs  []int              // participants so far, in arrival order; empty while no epoch is open
	merged *rdma.BarrierClock // their clocks, merged; nil while no epoch is open or clocks are off
	obs    vclock.VC          // their causal observation clocks, merged (nil unless causal)
}

func (b *barrierCoord) arrive(a *rdma.BarrierMsg) {
	nic := b.c.sys.NIC(0)
	if len(b.procs) == 0 {
		b.epoch = a.Epoch
		if b.c.sys.ClocksOn() {
			b.merged = nic.GrabBarrierClock(len(b.c.procs))
		}
	} else if a.Epoch != b.epoch {
		panic(fmt.Sprintf("dsm: P%d arrived at barrier %d while barrier %d is open", a.Proc, a.Epoch, b.epoch))
	}
	b.procs = append(b.procs, a.Proc)
	if b.merged != nil {
		b.merged.C.Merge(a.Clock)
	}
	if a.Obs != nil {
		if b.obs == nil {
			b.obs = a.Obs // fresh copy shipped in the arrival; adopt it
		} else {
			b.obs.Merge(a.Obs)
		}
	}
	nic.ReleaseBarrierMsg(a)
	if len(b.procs) < len(b.c.procs) {
		return
	}
	now := b.c.kernelFor(0).Now()
	size := network.HeaderBytes + b.c.sys.ClockBytes(vclock.Dense(b.obs))
	if b.merged != nil {
		size += b.c.sys.ClockBytes(b.merged.C)
	}
	for _, proc := range b.procs {
		// Record the barrier at the merge instant so the verifier sees all
		// participants' barrier events before any post-barrier access.
		if b.c.rec != nil {
			b.c.rec.Append(trace.Event{Kind: trace.EvBarrier, Proc: proc, Epoch: b.epoch, Time: now})
		}
		r := nic.GrabBarrierMsg()
		r.Proc, r.Release, r.Merged = proc, true, b.merged
		if b.obs != nil {
			r.Obs = b.obs.Copy()
		}
		nic.SendUser(network.NodeID(proc), network.KindBarrier, size, r)
	}
	b.procs, b.merged, b.obs = b.procs[:0], nil, nil
}

// Barrier blocks until every running process has entered the same barrier
// epoch, then resumes all of them with merged clocks.
func (p *Proc) Barrier() {
	p.epoch++
	if p.clocks {
		p.clock.Tick(p.id)
	}
	p.barrierDone = false
	nic := p.c.sys.NIC(p.id)
	a := nic.GrabBarrierMsg()
	a.Proc, a.Epoch, a.Clock, a.Obs = p.id, p.epoch, p.clock, nic.CausalObs()
	size := network.HeaderBytes + p.c.sys.ClockBytes(a.Clock) + p.c.sys.ClockBytes(vclock.Dense(a.Obs))
	nic.SendUser(0, network.KindBarrier, size, a)
	for !p.barrierDone {
		p.sp.ParkN("barrier", p.epoch)
	}
}

// barrierRelease absorbs the epoch's merged clock and wakes the process. It
// runs in this node's own handler context, so the causal observation merge
// happens where the protocol state lives; the process is still parked, so
// nothing else is using its clock.
func (p *Proc) barrierRelease(r *rdma.BarrierMsg) {
	nic := p.c.sys.NIC(p.id)
	nic.CausalMergeObs(r.Obs)
	// The merged clock's mask is the union of every arrival's, so the
	// process clock's mask stays exact.
	if r.Merged != nil {
		p.clock.Merge(r.Merged.C)
	}
	nic.ReleaseBarrierMsg(r)
	p.barrierDone = true
	p.sp.Ready()
}

// ReduceOp names a reduction operator.
type ReduceOp int

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
	OpProd
)

// String returns the operator name.
func (o ReduceOp) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Apply folds b into a.
func (o ReduceOp) Apply(a, b memory.Word) memory.Word {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpProd:
		return a * b
	default:
		panic("dsm: unknown reduce op")
	}
}

// ReduceOneSided is the paper's §V-B future-work operation, implemented: a
// non-collective global reduction. The caller fetches every named area's
// contents with one-sided gets and folds them locally — no other process
// participates or is even aware.
func (p *Proc) ReduceOneSided(areaNames []string, op ReduceOp) (memory.Word, error) {
	var acc memory.Word
	first := true
	for _, name := range areaNames {
		a, err := p.Area(name)
		if err != nil {
			return 0, err
		}
		data, err := p.Get(name, 0, a.Len)
		if err != nil {
			return 0, err
		}
		for _, w := range data {
			if first {
				acc = w
				first = false
			} else {
				acc = op.Apply(acc, w)
			}
		}
	}
	if first {
		return 0, fmt.Errorf("dsm: one-sided reduce over no data")
	}
	return acc, nil
}

// ReduceCollective is the conventional counterpart every process must call:
// each contributes value into its slot of the scratch area (which must hold
// at least N()+1 words), the root folds and publishes, everyone reads the
// result. Costs two barriers; contrast with ReduceOneSided in E-T7.
func (p *Proc) ReduceCollective(scratch string, value memory.Word, op ReduceOp, root int) (memory.Word, error) {
	a, err := p.Area(scratch)
	if err != nil {
		return 0, err
	}
	if a.Len < p.N()+1 {
		return 0, fmt.Errorf("dsm: scratch %q needs %d words, has %d", scratch, p.N()+1, a.Len)
	}
	if err := p.Put(scratch, p.id, value); err != nil {
		return 0, err
	}
	p.Barrier()
	if p.id == root {
		vals, err := p.Get(scratch, 0, p.N())
		if err != nil {
			return 0, err
		}
		acc := vals[0]
		for _, v := range vals[1:] {
			acc = op.Apply(acc, v)
		}
		if err := p.Put(scratch, p.N(), acc); err != nil {
			return 0, err
		}
	}
	p.Barrier()
	return p.GetWord(scratch, p.N())
}

// Broadcast publishes value from root through the named one-word-or-larger
// area; every process returns the broadcast value. All processes must call
// it (it contains a barrier).
func (p *Proc) Broadcast(name string, value memory.Word, root int) (memory.Word, error) {
	if p.id == root {
		if err := p.Put(name, 0, value); err != nil {
			return 0, err
		}
	}
	p.Barrier()
	return p.GetWord(name, 0)
}

// ---- Non-collective one-sided global operations (§V-B): the caller acts
// on data spread across many nodes with pure one-sided traffic; no other
// process participates or is aware. ----

// BroadcastOneSided pushes value into word 0 of every named area — a
// one-sided broadcast the targets never notice.
func (p *Proc) BroadcastOneSided(areaNames []string, value memory.Word) error {
	for _, name := range areaNames {
		if err := p.Put(name, 0, value); err != nil {
			return err
		}
	}
	return nil
}

// GatherOneSided fetches word 0 of every named area, in order.
func (p *Proc) GatherOneSided(areaNames []string) ([]memory.Word, error) {
	out := make([]memory.Word, 0, len(areaNames))
	for _, name := range areaNames {
		v, err := p.GetWord(name, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ScatterOneSided writes vals[i] into word 0 of areaNames[i].
func (p *Proc) ScatterOneSided(areaNames []string, vals []memory.Word) error {
	if len(vals) != len(areaNames) {
		return fmt.Errorf("dsm: scatter arity: %d values for %d areas", len(vals), len(areaNames))
	}
	for i, name := range areaNames {
		if err := p.Put(name, 0, vals[i]); err != nil {
			return err
		}
	}
	return nil
}
