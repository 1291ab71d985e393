package dsm

import (
	"fmt"

	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/trace"
	"dsmrace/internal/vclock"
)

// ---- Barrier: a clock-merging global synchronisation point. All running
// processes must call Barrier the same number of times. The coordinator
// lives on node 0's NIC; arrivals carry each process's clock and releases
// carry the merge, so the barrier is a full happens-before exchange (which
// is what makes barrier-phased programs race-free under the detector). ----

type barrierArrive struct {
	proc  int
	epoch int
	clock vclock.VC
	// obs is the arriver's causal observation clock (fresh copy; nil unless
	// causal coherence) — the release half of the barrier's causal edge.
	obs vclock.VC
}

type barrierRelease struct {
	proc  int
	clock vclock.VC
	// obs is the merge of every participant's observation clock (fresh copy
	// per release; nil unless causal coherence).
	obs vclock.VC
}

type barrierCoord struct {
	c      *Cluster
	epochs map[int][]*barrierArrive
}

func (b *barrierCoord) arrive(a *barrierArrive) {
	if b.epochs == nil {
		b.epochs = make(map[int][]*barrierArrive)
	}
	b.epochs[a.epoch] = append(b.epochs[a.epoch], a)
	if len(b.epochs[a.epoch]) < len(b.c.procs) {
		return
	}
	arrivals := b.epochs[a.epoch]
	delete(b.epochs, a.epoch)
	merged := vclock.New(b.c.cfg.Procs)
	var mergedObs vclock.VC
	for _, ar := range arrivals {
		merged.Merge(ar.clock)
		if ar.obs != nil {
			if mergedObs == nil {
				mergedObs = ar.obs // fresh copy shipped in the arrival; adopt it
			} else {
				mergedObs.Merge(ar.obs)
			}
		}
	}
	now := b.c.kernelFor(0).Now()
	for _, ar := range arrivals {
		// Record the barrier at the merge instant so the verifier sees all
		// participants' barrier events before any post-barrier access.
		if b.c.rec != nil {
			b.c.rec.Append(trace.Event{Kind: trace.EvBarrier, Proc: ar.proc, Epoch: a.epoch, Time: now})
		}
		size := network.HeaderBytes + merged.WireSize()
		var obs vclock.VC
		if mergedObs != nil {
			obs = mergedObs.Copy()
			size += obs.WireSize()
		}
		b.c.sys.NIC(0).SendUser(network.NodeID(ar.proc), network.KindBarrier,
			size, &barrierRelease{proc: ar.proc, clock: merged.Copy(), obs: obs})
	}
}

// Barrier blocks until every running process has entered the same barrier
// epoch, then resumes all of them with merged clocks.
func (p *Proc) Barrier() {
	p.epoch++
	p.clock.Tick(p.id)
	p.barrierDone = false
	obs := p.c.sys.NIC(p.id).CausalObs()
	size := network.HeaderBytes + p.clock.V.WireSize()
	if obs != nil {
		size += obs.WireSize()
	}
	p.c.sys.NIC(p.id).SendUser(0, network.KindBarrier, size,
		&barrierArrive{proc: p.id, epoch: p.epoch, clock: p.clock.V.Copy(), obs: obs})
	for !p.barrierDone {
		p.sp.ParkN("barrier", p.epoch)
	}
	// The merged barrier clock has contributions from every process: merge
	// it densely (the mask saturates, as it must).
	p.clock.Merge(vclock.Dense(p.barrierClock))
}

func (p *Proc) barrierRelease(clk, obs vclock.VC) {
	// The release runs in this node's own handler context, so the causal
	// observation merge happens where the protocol state lives.
	p.c.sys.NIC(p.id).CausalMergeObs(obs)
	p.barrierClock = clk
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
