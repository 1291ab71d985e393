package rdma

import (
	"errors"
	"fmt"

	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/fault"
	"dsmrace/internal/memory"
	"dsmrace/internal/network"
	"dsmrace/internal/sim"
	"dsmrace/internal/vclock"
)

// Protocol selects the wire protocol implementing Algorithms 1–2.
type Protocol int

// Protocols.
const (
	// ProtocolPiggyback is the optimised single round-trip protocol.
	ProtocolPiggyback Protocol = iota
	// ProtocolLiteral is the paper's message sequence, verbatim.
	ProtocolLiteral
)

// String names the protocol for tables.
func (p Protocol) String() string {
	if p == ProtocolLiteral {
		return "literal"
	}
	return "piggyback"
}

// Granularity selects what a detection-state instance covers.
type Granularity int

// Granularities.
const (
	// GranularityArea keeps one (V, W) pair per shared variable — §V-A's
	// "a clock must be used for each shared piece of data".
	GranularityArea Granularity = iota
	// GranularityNode keeps one pair per node, the coarser model used by
	// the paper's figures (node clock = area clock).
	GranularityNode
	// GranularityWord keeps one pair per word: no clock false sharing at
	// the maximum storage cost — the fine end of §V-A's trade-off (E-T11).
	// Not supported by the literal protocol (Algorithms 1–2 fetch one
	// clock pair per operation).
	GranularityWord
)

// String names the granularity for tables.
func (g Granularity) String() string {
	switch g {
	case GranularityNode:
		return "node"
	case GranularityWord:
		return "word"
	default:
		return "area"
	}
}

// Config parameterises the RDMA system.
type Config struct {
	// Protocol selects literal or piggyback wiring.
	Protocol Protocol
	// Coherence selects the coherence protocol layered over the NICs:
	// write-update (the model's original single-copy behaviour; the
	// default when nil) or write-invalidate (home-based directory with
	// whole-area read caching and acknowledged invalidations). The literal
	// wire protocol supports write-update only: Algorithms 1–2 prescribe
	// the exact per-access message sequence, which caching would elide.
	Coherence coherence.Protocol
	// Granularity selects per-area or per-node detection state.
	Granularity Granularity
	// Detector is the race detector; nil disables detection entirely
	// (no checks, and with no Observer either no clock bytes on the wire:
	// System.ClocksOn).
	Detector core.Detector
	// Collector receives race reports; required when Detector is set.
	Collector *core.Collector
	// AbsorbOnGetReply merges the area's write clock into the reader's
	// clock (reads-from edge). The paper's figures require true.
	AbsorbOnGetReply bool
	// AbsorbOnPutAck merges the updated area clock into the writer's clock.
	// The completion ack is a real message from the home, so its reception
	// is a legitimate happens-before edge; absorbing it lets a process's
	// later operations dominate its own earlier writes (including the home
	// tick). The paper's algorithms do not absorb — that stricter mode is
	// kept for figure reproduction and the E-T10 ablation.
	AbsorbOnPutAck bool
	// LocksEnabled grants each operation exclusive access to its area (Fig. 3).
	// Disabling it is the torn-access ablation.
	LocksEnabled bool
	// NICDelay is the processing time the NIC charges per remote operation.
	NICDelay sim.Time
	// MemPerWord is the memory-occupancy time per word moved, the window
	// during which the area lock is held (what delays the put in Fig. 3).
	MemPerWord sim.Time
	// Observer, when non-nil, receives apply-order notifications of memory
	// and user-lock events (trace recording).
	Observer Observer
}

// Observer receives apply-order event notifications from the NICs.
// Implementations must not block; calls happen in event context.
type Observer interface {
	// Access fires when a put/get/atomic is applied at its home. Under the
	// piggyback protocol acc.Clock and acc.Locks alias the parked initiator's
	// live clock and held-lock list: to keep either past the call, copy it.
	Access(acc core.Access, area memory.Area, off, count int, at sim.Time)
	// LockAcq fires when a user-level lock is granted.
	LockAcq(proc int, area memory.Area, at sim.Time)
	// LockRel fires when a user-level lock is released.
	LockRel(proc int, area memory.Area, at sim.Time)
}

// DefaultConfig returns the configuration matching the paper's model:
// piggyback protocol, per-area clocks, completion-edge absorption, locks on.
func DefaultConfig(det core.Detector, col *core.Collector) Config {
	return Config{
		Protocol:         ProtocolPiggyback,
		Granularity:      GranularityArea,
		Detector:         det,
		Collector:        col,
		AbsorbOnGetReply: true,
		AbsorbOnPutAck:   true,
		LocksEnabled:     true,
		NICDelay:         200 * sim.Nanosecond,
		MemPerWord:       2 * sim.Nanosecond,
	}
}

// Validate reports the first incompatible option pair in c for a cluster of
// the given node count. It is the single home of the option-compatibility
// rules: dsm.New returns its error, and NewSystem panics with it for
// callers that skipped the check.
func (c Config) Validate(nodes int) error {
	literal := c.Protocol == ProtocolLiteral
	caches := c.Coherence != nil && c.Coherence.CachesRemoteReads()
	switch {
	case nodes > vclock.MaxWireComponents:
		return fmt.Errorf("rdma: %d nodes exceed the clock wire format's %d components", nodes, vclock.MaxWireComponents)
	case literal && c.Granularity == GranularityWord:
		return errors.New("rdma: word granularity requires the piggyback protocol")
	case literal && caches:
		return errors.New("rdma: the literal protocol supports write-update coherence only")
	}
	if literal && c.Detector != nil {
		// Algorithms 1–2 fetch and write back the stored clocks; a detector
		// without clock access cannot serve get_clock/put_clock. Reject the
		// combination up front rather than fail every operation mid-run at
		// its first clock fetch.
		if _, ok := c.Detector.NewAreaState(nodes).(core.ClockAccessor); !ok {
			return errors.New("rdma: the literal protocol requires a clock-based detector")
		}
	}
	return nil
}

// System owns the NICs, the detection state and the lock tables for a
// cluster sharing one memory space.
type System struct {
	cfg   Config
	net   *network.Network
	space *memory.Space
	nics  []*NIC
	// multi marks a sharded (multi-kernel) system: per-operation structs
	// carry shard-ownership tags, race reports flush through the window
	// barrier, and pool audits settle cross-shard returns there too.
	multi bool
	// coh is the coherence protocol's replica bookkeeping (directory +
	// caches); a write-update run carries the no-op state.
	coh coherence.State
	// cau and mes are coh's extended views when the protocol provides them
	// (causal memory, MESI). Asserted once at construction so the hot paths
	// gate on a nil check instead of a per-operation type assertion.
	cau coherence.CausalState
	mes coherence.MESIState
	// areaStates is the detection-state table at area granularity, indexed
	// directly by AreaID — the registry is sealed before the run, so the id
	// space is dense and a slice beats a map at large area counts. The other
	// granularities (node, word) fall back to the keyed map.
	areaStates []core.AreaState
	states     map[int]core.AreaState
	// elideAbsorb enables covered-absorb elision on newly created states.
	elideAbsorb bool
	// pools holds one pool shard per kernel shard (exactly one on a single
	// kernel). Every NIC points at the pool shard of the kernel that runs
	// its events, so pooled grabs and releases never race.
	pools []*shardPools
	// Fault layer (see fault.go). faultOn marks the layer threaded through
	// the system (request ownership flips to the home side); fArm marks a
	// hostile schedule — deadlines armed, drops and crashes possible. A
	// benign schedule keeps fArm false, so the armed-but-idle tax is a
	// handful of predictable branches.
	faultOn    bool
	fArm       bool
	inj        *fault.Injector
	ftimeout   sim.Time
	fretryBase sim.Time
	fbudget    int
	// failTab is the per-shard failover table: failTab[shard][node] is the
	// crashed node's successor home (-1 none). Flipped by injector events at
	// the same virtual instant on every shard.
	failTab [][]int32
}

// shardPools is one kernel shard's slice of the per-operation pools: the
// request/response/continuation free lists, the piggybacked clock buffers
// and the request-id counter. On a single kernel there is exactly one; in a
// sharded system each shard owns one and only ever touches its own — a
// pooled struct released on a shard that did not grab it goes into that
// shard's return bin and travels home at the next window barrier (settle),
// which is also what keeps the per-shard balance audit exact.
type shardPools struct {
	idx    int
	reqSeq uint64
	// idBase namespaces request ids per shard (shard index in the top bits)
	// so concurrently issued requests can never collide at a NIC's pending
	// table or a home's invalidation join. Zero on a single kernel, which
	// keeps its ids — and everything downstream — bit-identical.
	idBase uint64
	// clockPool recycles the masked clock buffers piggybacked on replies
	// (the "absorb" clocks). Buffers are fungible (no audit, no owner): a
	// clock grabbed at the home and absorbed by a remote initiator is
	// recycled into the initiator shard's pool.
	clockPool []vclock.Masked
	// wordScratch is the per-word OnAccess absorb buffer reused across the
	// word-granularity fan-out loop.
	wordScratch vclock.Masked
	reqPool     []*req
	respPool    []*resp
	opPool      []*homeOp
	initPool    []*initOp
	bmsgPool    []*BarrierMsg
	bclockPool  []*BarrierClock
	balance     PoolBalance
	// ret collects foreign-owned structs released on this shard, per owner
	// shard; the barrier settle moves them home. Nil on a single kernel.
	ret []retBin
	// bclockGrabs counts merged barrier clocks handed out, one per epoch of
	// a run whose clocks are on (System.ClocksOn).
	bclockGrabs uint64
}

// retBin buffers pooled structs owed to one owner shard.
type retBin struct {
	reqs  []*req
	resps []*resp
	ops   []*homeOp
	inits []*initOp
	bmsgs []*BarrierMsg
	// bclocks holds one entry per released reference, not per clock.
	bclocks []*BarrierClock
}

// PoolBalance is the live (grabbed minus released) count of every pooled
// per-operation struct. Every operation that ran to completion returns all
// of its buffers, so a finished run balances to zero everywhere; the only
// legitimate nonzero entries belong to operations a failure schedule left
// permanently stuck (e.g. a request dropped on a cut link parks its
// initiator forever, keeping its initOp alive). A nonzero balance after a clean run is a leak — and in
// a sharded run the balance is kept *per shard* (a struct counts against
// the shard that grabbed it until it is released and settles home), so a
// cross-shard envelope leak shows up in exactly the shard that owns the
// leaked struct.
type PoolBalance struct {
	Reqs, Resps, HomeOps, InitOps int
	// BarrierMsgs counts barrier arrival and release records; BarrierClocks
	// counts merged barrier clocks some participant has yet to absorb.
	BarrierMsgs, BarrierClocks int
}

func (b *PoolBalance) add(o PoolBalance) {
	b.Reqs += o.Reqs
	b.Resps += o.Resps
	b.HomeOps += o.HomeOps
	b.InitOps += o.InitOps
	b.BarrierMsgs += o.BarrierMsgs
	b.BarrierClocks += o.BarrierClocks
}

// PoolBalance returns the current live pool counts, summed across shards.
func (s *System) PoolBalance() PoolBalance {
	var total PoolBalance
	for _, ps := range s.pools {
		total.add(ps.balance)
	}
	return total
}

// PoolShards returns the number of pool shards (1 on a single kernel).
func (s *System) PoolShards() int { return len(s.pools) }

// PoolBalanceShard returns shard i's live pool counts. After a clean run
// (and its final barrier settle) every shard balances to zero.
func (s *System) PoolBalanceShard(i int) PoolBalance { return s.pools[i].balance }

// BarrierClocksGrabbed returns the number of merged barrier clocks handed
// out so far: one per barrier epoch when clocks are on, none otherwise.
func (s *System) BarrierClocksGrabbed() uint64 {
	var total uint64
	for _, ps := range s.pools {
		total += ps.bclockGrabs
	}
	return total
}

// settlePools is the window-barrier hook of a sharded system: move every
// foreign-owned struct released since the last barrier back to its owner's
// free list and debit the owner's balance. Serial context.
func (s *System) settlePools() {
	for _, ps := range s.pools {
		for owner := range ps.ret {
			bin, op := &ps.ret[owner], s.pools[owner]
			settle(&bin.reqs, &op.reqPool, &op.balance.Reqs)
			settle(&bin.resps, &op.respPool, &op.balance.Resps)
			settle(&bin.ops, &op.opPool, &op.balance.HomeOps)
			settle(&bin.inits, &op.initPool, &op.balance.InitOps)
			settle(&bin.bmsgs, &op.bmsgPool, &op.balance.BarrierMsgs)
			for _, c := range bin.bclocks {
				op.releaseBarrierClock(c)
			}
			bin.bclocks = bin.bclocks[:0]
		}
	}
}

// settle moves one return bin into its owner's free list.
func settle[T any](bin, pool *[]T, live *int) {
	*live -= len(*bin)
	*pool = append(*pool, *bin...)
	*bin = (*bin)[:0]
}

// reclaimDropped is the network's drop hook: a dropped message vanishes
// together with its pooled payload, which would otherwise leak (the
// initiator of a dropped round trip parks forever and can never release the
// request it no longer owns; a dropped reply's resp has no receiver at all).
// ctxShard is the shard in whose execution context the drop happened — the
// sender's for a send-time drop (cut link, down source, drop policy), the
// destination's for a delivery-time drop (crashed destination, atDelivery)
// — and its pools take the payload. With a hostile schedule armed, the
// fault layer is told first so the loss converts to recovery
// (retransmission marks, NACK bounces, vacuous invalidation acks) instead
// of a silent stall. A lost
// barrier message has no recovery (its barrier never completes); its record
// and its share of the merged clock are reclaimed like any other payload.
func (s *System) reclaimDropped(ctxShard int, atDelivery bool, src, dst network.NodeID, kind network.Kind, payload any) {
	ps := s.pools[ctxShard]
	switch pl := payload.(type) {
	case *req:
		if s.fArm {
			switch kind {
			case network.KindInval:
				s.faultInvalLost(ps, atDelivery, src, dst, pl)
			case network.KindPutReq, network.KindGetReq, network.KindFetchReq,
				network.KindClockRead, network.KindAtomicReq, network.KindLockReq:
				s.faultReqLost(ps, atDelivery, src, dst, kind, pl)
			case network.KindUnlock, network.KindClockWrite:
				// One-way control messages have no end-to-end recovery (no
				// reply, no deadline), and losing an unlock wedges its lock
				// forever: the control plane is modelled reliable — a drop
				// converts to an immediate link-layer retransmission while
				// both endpoints are alive. A drop at a crashed endpoint
				// stays a loss (a dead destination's state died with it; a
				// dead source's late unlock must NOT release a lock the
				// crash sweep already handed to the next waiter) and
				// reclaims below.
				if !atDelivery && !s.net.NodeFaulted(ctxShard, src) && !s.net.NodeFaulted(ctxShard, dst) {
					// The same size function over the same payload: the
					// retransmission charges exactly what the original did.
					size := network.HeaderBytes + s.ClockBytes(accClock(pl.acc)) +
						s.ClockBytes(vclock.Dense(pl.v)) + s.ClockBytes(vclock.Dense(pl.w)) +
						s.ClockBytes(vclock.Dense(pl.obs))
					s.net.SendExempt(&network.Message{Src: src, Dst: dst, Kind: kind,
						Size: size, Area: wireArea(pl.area), Payload: pl})
					return
				}
			}
		}
		// A user-level unlock ships the releaser's clock in a pooled buffer
		// (adopted by the home's unlock handler on arrival); reclaim it with
		// the req. Data requests must not release theirs: a piggyback access
		// clock aliases the initiating process's live clock.
		if kind == network.KindUnlock && pl.user && pl.acc.Clock != nil {
			ps.releaseClock(accClock(pl.acc))
		}
		ps.releaseReq(pl)
	case *resp:
		if s.fArm && !s.net.NodeFaulted(ctxShard, src) && !s.net.NodeFaulted(ctxShard, dst) {
			if kind == network.KindInvalAck {
				// Control-plane reliable (like Unlock above): a lost ack
				// would wedge the home's invalidation round forever.
				s.net.SendExempt(&network.Message{Src: src, Dst: dst, Kind: kind,
					Size: network.HeaderBytes, Payload: pl})
				return
			}
			if pl.err != nackErr && pl.err != lostErr {
				// Reply drop — probabilistic or cut link. Reuse the pooled
				// resp as a loss notification in the reply's own kind. The
				// bounce must cover cut links too: relying on the watchdog's
				// link check alone races with heals — a reply dropped late
				// in an outage whose initiator's deadline expires after the
				// heal sees a healthy peer and waits forever. The bounce is
				// evidence the initiator would legitimately infer from its
				// own timeout, just delivered at a deterministic instant.
				ps.releaseClock(pl.clock)
				pl.clock = vclock.Masked{}
				pl.data, pl.v, pl.w = nil, nil, nil // the payload buffer stays with the struct
				pl.err = lostErr
				s.net.SendExempt(&network.Message{Src: src, Dst: dst, Kind: kind,
					Size: network.HeaderBytes, Payload: pl})
				return
			}
		}
		// Acks, replies and lock grants piggyback pooled absorb clocks.
		ps.releaseClock(pl.clock)
		ps.releaseResp(pl)
	case *BarrierMsg:
		ps.releaseBarrierMsg(pl)
	}
}

// grabOp takes a home-side operation struct from the pool, binding its
// continuation funcs once on first creation.
func (ps *shardPools) grabOp() *homeOp {
	ps.balance.HomeOps++
	if n := len(ps.opPool); n > 0 {
		o := ps.opPool[n-1]
		ps.opPool = ps.opPool[:n-1]
		o.owner = int32(ps.idx)
		return o
	}
	o := &homeOp{owner: int32(ps.idx)}
	o.grantFn = o.grant
	o.runFn = o.run
	o.finishFn = o.finish
	o.occupyFn = o.occupy
	return o
}

// releaseOp recycles a completed home-side operation.
func (ps *shardPools) releaseOp(o *homeOp) {
	owner := o.owner
	o.n, o.r, o.l = nil, nil, nil
	o.err = nil
	o.absorb = vclock.Masked{}
	o.old = 0
	o.ver = 0
	o.invalLeft, o.invalRecall = 0, false
	if int(owner) == ps.idx {
		ps.balance.HomeOps--
		ps.opPool = append(ps.opPool, o)
		return
	}
	ps.ret[owner].ops = append(ps.ret[owner].ops, o)
}

func (ps *shardPools) grabReq() *req {
	ps.balance.Reqs++
	if n := len(ps.reqPool); n > 0 {
		r := ps.reqPool[n-1]
		ps.reqPool = ps.reqPool[:n-1]
		r.owner = int32(ps.idx)
		return r
	}
	return &req{owner: int32(ps.idx)}
}

func (ps *shardPools) releaseReq(r *req) {
	owner := r.owner
	*r = req{grantFn: r.grantFn}
	if int(owner) == ps.idx {
		ps.balance.Reqs--
		ps.reqPool = append(ps.reqPool, r)
		return
	}
	ps.ret[owner].reqs = append(ps.ret[owner].reqs, r)
}

func (ps *shardPools) grabResp() *resp {
	ps.balance.Resps++
	if n := len(ps.respPool); n > 0 {
		r := ps.respPool[n-1]
		ps.respPool = ps.respPool[:n-1]
		r.owner = int32(ps.idx)
		return r
	}
	return &resp{owner: int32(ps.idx)}
}

func (ps *shardPools) releaseResp(r *resp) {
	owner := r.owner
	*r = resp{buf: r.buf}
	if int(owner) == ps.idx {
		ps.balance.Resps--
		ps.respPool = append(ps.respPool, r)
		return
	}
	ps.ret[owner].resps = append(ps.ret[owner].resps, r)
}

// NewSystem wires one NIC per node onto the network. The space should be
// fully allocated (it is sealed here).
func NewSystem(net *network.Network, space *memory.Space, cfg Config) *System {
	if cfg.Detector != nil && cfg.Collector == nil {
		cfg.Collector = &core.Collector{}
	}
	if err := cfg.Validate(space.N()); err != nil {
		panic(err)
	}
	if cfg.Coherence == nil {
		cfg.Coherence = coherence.NewWriteUpdate()
	}
	s := &System{cfg: cfg, net: net, space: space, states: make(map[int]core.AreaState)}
	s.multi = net.Multi() != nil
	shards := net.ShardCount()
	for i := 0; i < shards; i++ {
		ps := &shardPools{idx: i}
		if shards > 1 {
			// Namespaced ids: shard in the top 16 bits, counter below. A
			// single kernel keeps idBase 0, i.e. the historical id stream.
			ps.idBase = uint64(i) << 48
			ps.ret = make([]retBin, shards)
		}
		s.pools = append(s.pools, ps)
	}
	if mk := net.Multi(); mk != nil {
		mk.OnBarrier(s.settlePools)
	}
	s.coh = cfg.Coherence.NewState(space.N(), space.AreaCount())
	s.cau, _ = s.coh.(coherence.CausalState)
	s.mes, _ = s.coh.(coherence.MESIState)
	net.OnDrop = s.reclaimDropped
	// Covered-absorb elision (see core.AbsorbElider) is sound when no
	// replica machinery consumes the reply clock (write-update only) and
	// states are not fanned out per word. A covered reply ships the 2-byte
	// covered marker: the home holds the parked initiator's request clock,
	// which dominates the reply.
	s.elideAbsorb = cfg.Protocol == ProtocolPiggyback &&
		cfg.Granularity != GranularityWord && !cfg.Coherence.CachesRemoteReads()
	space.Seal()
	if cfg.Granularity == GranularityArea {
		s.areaStates = make([]core.AreaState, space.AreaCount())
	}
	for i := 0; i < space.N(); i++ {
		nic := &NIC{
			sys:       s,
			id:        network.NodeID(i),
			k:         net.KernelFor(network.NodeID(i)),
			ps:        s.pools[net.ShardOf(network.NodeID(i))],
			invalWait: make(map[uint64]*homeOp),
			locks:     make([]*lockState, space.AreaCount()),
		}
		s.nics = append(s.nics, nic)
		net.SetHandler(nic.id, nic.handle)
	}
	return s
}

// Coherence returns the configured coherence protocol.
func (s *System) Coherence() coherence.Protocol { return s.cfg.Coherence }

// CoherenceStats returns the run's coherence event counters (hits, fetches,
// invalidations) — the traffic the network statistics cannot see.
func (s *System) CoherenceStats() coherence.Stats { return s.coh.Stats() }

// FlushDirtyCopies writes every cache line newer than home memory (MESI's
// M lines, mutated by silent writes) back into the space, so an end-of-run
// memory snapshot reflects every committed write. No-op for protocols whose
// home copy is always current. Serial context, after the simulation ends.
func (s *System) FlushDirtyCopies() {
	f, ok := s.coh.(coherence.DirtyFlusher)
	if !ok {
		return
	}
	f.FlushDirty(func(node int, id memory.AreaID, data []memory.Word) {
		a, err := s.space.AreaByID(id)
		if err != nil {
			panic(err)
		}
		if err := s.space.Node(a.Home).WritePublic(a.Off, data); err != nil {
			panic(err)
		}
	})
}

// countHomeRead and countFetch attribute transport-level coherence events
// to the protocol state, when it tracks them; node is the node in whose
// execution context the event happened.
func (s *System) countHomeRead(node int) {
	if c, ok := s.coh.(coherence.Counter); ok {
		c.CountHomeRead(node)
	}
}

func (s *System) countFetch(node int) {
	if c, ok := s.coh.(coherence.Counter); ok {
		c.CountFetch(node)
	}
}

// grabClock takes a recycled masked clock buffer from the shard's pool (the
// zero Masked when empty — the detector then allocates one of the right
// size).
func (ps *shardPools) grabClock() vclock.Masked {
	if n := len(ps.clockPool); n > 0 {
		c := ps.clockPool[n-1]
		ps.clockPool = ps.clockPool[:n-1]
		return c
	}
	return vclock.Masked{}
}

// releaseClock returns a piggybacked clock buffer to the shard's pool once
// its contents have been absorbed. Callers must not retain the buffer
// afterwards; releasing one still referenced elsewhere corrupts a future
// reply. Clock buffers are fungible and unaudited, so a buffer grabbed on
// another shard simply changes pools here.
func (ps *shardPools) releaseClock(c vclock.Masked) {
	if !c.IsNil() {
		ps.clockPool = append(ps.clockPool, c)
	}
}

// ReleaseClock returns a clock buffer via node 0's pool shard — the
// single-kernel compatibility path (sharded callers go through the NIC).
func (s *System) ReleaseClock(c vclock.Masked) { s.pools[0].releaseClock(c) }

// GrabClock hands out a pooled clock buffer for callers (the DSM runtime)
// that ship a clock snapshot through the system and get it released on the
// receiving side — the exported counterpart of ReleaseClock. Single-kernel
// compatibility path; sharded callers go through the NIC.
func (s *System) GrabClock() vclock.Masked { return s.pools[0].grabClock() }

// NIC returns node id's network interface.
func (s *System) NIC(id int) *NIC { return s.nics[id] }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Space returns the shared memory space.
func (s *System) Space() *memory.Space { return s.space }

// Collector returns the race report collector (nil when detection is off).
func (s *System) Collector() *core.Collector { return s.cfg.Collector }

// DetectionOn reports whether a detector is configured.
func (s *System) DetectionOn() bool { return s.cfg.Detector != nil }

// ClocksOn reports whether anything reads vector clocks: a detector (every
// detector keeps clocks, lockset and epoch included, for report context)
// or an observer (tracing records each access's clock). When it is false
// the run is uninstrumented: the runtime above allocates, ticks, merges and
// ships no process clock, so every lock grant, unlock and barrier message
// is header-only. Causal coherence's observation and dependency clocks are
// protocol state and ride either way.
func (s *System) ClocksOn() bool { return s.cfg.Detector != nil || s.cfg.Observer != nil }

// stateKey maps an area (and, at word granularity, a word) to its
// detection-state key under the configured granularity.
func (s *System) stateKey(a memory.Area, word int) int {
	switch s.cfg.Granularity {
	case GranularityNode:
		return -(a.Home + 1)
	case GranularityWord:
		// Words are globally identified by the home's public offset.
		return (a.Home+1)<<24 | (a.Off + word)
	default:
		return int(a.ID)
	}
}

// stateFor returns (lazily creating) the detection state covering area a
// (word-granularity callers pass the word index; others pass 0). Area
// granularity — the default and the hot path — indexes the dense slice.
func (s *System) stateFor(a memory.Area, word int) core.AreaState {
	if s.areaStates != nil {
		st := s.areaStates[a.ID]
		if st == nil {
			st = s.newAreaState()
			s.areaStates[a.ID] = st
		}
		return st
	}
	k := s.stateKey(a, word)
	st, ok := s.states[k]
	if !ok {
		st = s.newAreaState()
		s.states[k] = st
	}
	return st
}

// newAreaState builds a detection state with the run's options applied.
func (s *System) newAreaState() core.AreaState {
	st := s.cfg.Detector.NewAreaState(s.space.N())
	if s.elideAbsorb {
		if e, ok := st.(core.AbsorbElider); ok {
			e.EnableAbsorbElision()
		}
	}
	return st
}

// checkAccess runs the detector for an access spanning [off, off+count) of
// area a, handling the granularity fan-out: one state at node/area
// granularity, one per word at word granularity (the first report wins,
// absorbed clocks merge). It returns the clock for the initiator to absorb.
// n is the NIC in whose execution context the check runs (the home, or the
// reader itself for home-local reads) — its shard owns the scratch buffers
// and orders any report.
func (s *System) checkAccess(n *NIC, acc core.Access, a memory.Area, off, count int, at sim.Time) vclock.Masked {
	ps := n.ps
	if s.cfg.Granularity != GranularityWord {
		buf := ps.grabClock()
		rep, clk := s.stateFor(a, 0).OnAccess(acc, a.Home, buf)
		if clk.IsNil() {
			// Detectors without an absorb clock (epoch, lockset, nop)
			// ignore the scratch buffer; keep it in the pool.
			ps.releaseClock(buf)
		}
		s.signal(n, rep, at)
		return clk
	}
	var absorb vclock.Masked
	var first *core.Report
	if count < 1 {
		count = 1
	}
	for w := off; w < off+count; w++ {
		// Each word has its own state (and so its own report scratch): the
		// first report's borrowed fields stay valid across the loop.
		rep, clk := s.stateFor(a, w).OnAccess(acc, a.Home, ps.wordScratch)
		if rep != nil && first == nil {
			first = rep
		}
		if !clk.IsNil() {
			ps.wordScratch = clk
			if absorb.IsNil() {
				absorb = clk.CopyInto(ps.grabClock())
			} else {
				absorb.Merge(clk)
			}
		}
	}
	s.signal(n, first, at)
	return absorb
}

// StorageBytes sums detection-state bytes over all instantiated states —
// the measured quantity of E-T1.
func (s *System) StorageBytes() int {
	total := 0
	for _, st := range s.areaStates {
		if st != nil {
			total += st.StorageBytes()
		}
	}
	//dsmlint:ordered integer sum; the fold commutes
	for _, st := range s.states {
		total += st.StorageBytes()
	}
	return total
}

func (ps *shardPools) nextReq() uint64 {
	ps.reqSeq++
	return ps.idBase | ps.reqSeq
}

// signal forwards a detector report to the collector, stamping the time on
// the borrowed report itself (the detector's scratch, or the caller's
// literal). n is the NIC in whose context the report was produced. On a
// sharded system the collector is shared across shards, so the (cloned)
// report is deferred through the window barrier's ordered replay — it
// reaches the collector at the signalling event's exact position in the
// serial order, keeping report order, collector limits and interning
// bit-identical.
func (s *System) signal(n *NIC, rep *core.Report, at sim.Time) {
	if rep == nil || s.cfg.Collector == nil {
		return
	}
	rep.Time = at
	if !s.multi {
		s.cfg.Collector.Signal(*rep)
		return
	}
	rc := rep.Clone() // the borrowed scratch fields won't survive the window
	// signal is context-polymorphic: under !multi it runs the collector
	// inline (any context), and the s.multi guard above means this branch
	// executes only from CPS delivery continuations inside a window.
	//dsmlint:eventhandler reviewed: multi-mode signal calls come only from event context
	n.k.LogOrdered(func() { s.cfg.Collector.Signal(rc) })
}

// ClockBytes returns the wire bytes of clock c riding on a message: the one
// size function every clock that crosses the network goes through. The
// piggyback protocol ships vclock's wire format (Masked.WireLen: sparse or
// fixed, whichever is smaller, or the 2-byte covered marker); the literal
// protocol keeps the paper's fixed format. Plain VCs (causal observation
// and dependency clocks, the literal protocol's raw clock reads and writes)
// go in through vclock.Dense and so ship fixed. No clock costs nothing.
func (s *System) ClockBytes(c vclock.Masked) int {
	if s.cfg.Protocol == ProtocolLiteral {
		c.M = nil
	}
	return c.WireLen()
}

// accClock is an access's clock with its occupancy mask.
func accClock(acc core.Access) vclock.Masked { return vclock.Masked{V: acc.Clock, M: acc.ClockNZ} }

// occupancy is how long the NIC holds the area lock while moving words.
func (s *System) occupancy(words int) sim.Time {
	return s.cfg.NICDelay + sim.Time(words)*s.cfg.MemPerWord
}

// AtomicOp selects a remote atomic operation.
type AtomicOp int

// Atomic operations (extensions beyond the paper's put/get).
const (
	AtomicFetchAdd AtomicOp = iota
	AtomicCAS
)

// Apply computes the stored word after the operation runs against old with
// operands a1, a2 (FetchAdd: old+a1; CAS: a2 iff old == a1). The home-side
// handler and the write-invalidate cache patch both use it, so the two
// sides cannot drift when an operation is added.
func (op AtomicOp) Apply(old, a1, a2 memory.Word) memory.Word {
	switch op {
	case AtomicFetchAdd:
		return old + a1
	case AtomicCAS:
		if old == a1 {
			return a2
		}
		return old
	default:
		panic(fmt.Sprintf("rdma: unknown atomic op %d", int(op)))
	}
}

// errString converts an error for transport in a response.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// asError converts a transported error string back to an error.
func asError(s string) error {
	if s == "" {
		return nil
	}
	return fmt.Errorf("rdma: %s", s)
}
