package network

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dsmrace/internal/sim"
)

// Kind classifies messages for accounting. The experiment tables break
// message counts down by kind to show where the detection overhead goes.
type Kind int

// Message kinds. Data kinds carry application payload; clock and lock kinds
// are pure detection/synchronisation overhead.
const (
	KindPutReq Kind = iota
	KindPutAck
	KindGetReq
	KindGetReply
	KindLockReq
	KindLockGrant
	KindUnlock
	KindClockRead     // literal protocol: get_clock / get_clock_W request
	KindClockReadResp // literal protocol: clock value reply
	KindClockWrite    // literal protocol: put_clock
	KindAtomicReq
	KindAtomicReply
	KindFetchReq   // write-invalidate: whole-area read-miss fetch request
	KindFetchReply // write-invalidate: area data + piggybacked write clock
	KindInval      // write-invalidate: drop-your-copy order from the home
	KindInvalAck   // write-invalidate: invalidation acknowledgement
	KindUpdate     // causal memory: home-fanned data update to sharers
	KindBarrier
	KindUser
	numKinds
)

var kindNames = [...]string{
	"put.req", "put.ack", "get.req", "get.reply",
	"lock.req", "lock.grant", "unlock",
	"clock.read", "clock.read.resp", "clock.write",
	"atomic.req", "atomic.reply",
	"fetch.req", "fetch.reply", "inval", "inval.ack",
	"update",
	"barrier", "user",
}

// String returns the kind's report label.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsOverhead reports whether the kind exists only because of the detection,
// locking or coherence machinery (as opposed to moving application data).
// Fetches carry data and count as data traffic; invalidations carry none.
func (k Kind) IsOverhead() bool {
	switch k {
	case KindLockReq, KindLockGrant, KindUnlock, KindClockRead, KindClockReadResp, KindClockWrite,
		KindInval, KindInvalAck:
		return true
	}
	return false
}

// Message is one network packet. Payload is simulator-internal (the NIC
// knows what to do with it); Size is the modelled wire size in bytes and is
// what the latency model and the statistics see.
type Message struct {
	Src, Dst NodeID
	Kind     Kind
	Size     int
	// Area identifies the memory area the packet concerns, as AreaID+1 so
	// the zero value means "not area-addressed" (barriers, clock traffic).
	// It feeds the exploration layer's independence analysis (two packets
	// on disjoint links and disjoint areas commute) and is not part of the
	// modelled wire size.
	Area    int
	Payload any
}

// HeaderBytes is the modelled per-message header size (addresses, op code,
// memory offsets) — roughly an InfiniBand RC send WQE worth of metadata.
const HeaderBytes = 32

// Handler consumes a delivered message. Handlers run in event context
// ("on the NIC"): they must not block, mirroring OS-bypass hardware.
type Handler func(m *Message)

// Stats accumulates traffic totals. Counters are indexed by Kind.
type Stats struct {
	Msgs       [numKinds]uint64
	Bytes      [numKinds]uint64
	TotalMsgs  uint64
	TotalBytes uint64
}

func (s *Stats) count(m *Message) {
	s.Msgs[m.Kind]++
	s.Bytes[m.Kind] += uint64(m.Size)
	s.TotalMsgs++
	s.TotalBytes += uint64(m.Size)
}

// OverheadMsgs returns the number of messages attributable to detection and
// locking machinery.
func (s *Stats) OverheadMsgs() uint64 {
	var n uint64
	for k := Kind(0); k < numKinds; k++ {
		if k.IsOverhead() {
			n += s.Msgs[k]
		}
	}
	return n
}

// OverheadBytes returns the bytes attributable to detection and locking.
func (s *Stats) OverheadBytes() uint64 {
	var n uint64
	for k := Kind(0); k < numKinds; k++ {
		if k.IsOverhead() {
			n += s.Bytes[k]
		}
	}
	return n
}

// Snapshot returns a copy of the current counters.
func (s *Stats) Snapshot() Stats { return *s }

// Sub returns the difference s - o, counter-wise.
func (s Stats) Sub(o Stats) Stats {
	var d Stats
	for k := 0; k < int(numKinds); k++ {
		d.Msgs[k] = s.Msgs[k] - o.Msgs[k]
		d.Bytes[k] = s.Bytes[k] - o.Bytes[k]
	}
	d.TotalMsgs = s.TotalMsgs - o.TotalMsgs
	d.TotalBytes = s.TotalBytes - o.TotalBytes
	return d
}

// String renders non-zero counters sorted by kind name.
func (s Stats) String() string {
	var rows []string
	for k := Kind(0); k < numKinds; k++ {
		if s.Msgs[k] > 0 {
			rows = append(rows, fmt.Sprintf("%s:%d(%dB)", k, s.Msgs[k], s.Bytes[k]))
		}
	}
	sort.Strings(rows)
	return fmt.Sprintf("msgs=%d bytes=%d [%s]", s.TotalMsgs, s.TotalBytes, strings.Join(rows, " "))
}

// inflight is a pooled in-transit message. The deliver closure is bound
// once when the wrapper is first created and reused for every flight, so a
// steady-state send performs no allocation: the caller's Message literal is
// copied in, delivered, and the wrapper recycled. In a sharded network the
// wrapper belongs to the destination's shard pool (sh non-nil): it is both
// grabbed and released in that shard's context, so pools never race.
type inflight struct {
	net *Network
	sh  *netShard
	m   Message
	fn  func()
}

func (f *inflight) deliver() {
	net := f.net
	if net.fviews != nil {
		// Delivery-time loss: the destination crashed while the message was
		// in flight. The check runs in the destination shard's context (the
		// wrapper's owning shard), against that shard's fault view.
		sh := 0
		if f.sh != nil {
			sh = f.sh.idx
		}
		if v := net.fviews[sh]; v.anyNodeDown && v.nodeDown[f.m.Dst] {
			if f.sh != nil {
				f.sh.dropped++
			} else {
				net.Dropped++
			}
			if net.OnDrop != nil {
				net.OnDrop(sh, true, f.m.Src, f.m.Dst, f.m.Kind, f.m.Payload)
			}
			f.m.Payload = nil
			if f.sh != nil {
				f.sh.pool = append(f.sh.pool, f)
			} else {
				net.pool = append(net.pool, f)
			}
			return
		}
	}
	h := net.handlers[f.m.Dst]
	if h == nil {
		panic(fmt.Sprintf("network: node %d has no handler", f.m.Dst))
	}
	if net.OnDeliver != nil {
		net.OnDeliver(f.m.Src, f.m.Dst, f.m.Kind, f.m.Size, f.m.Area)
	}
	h(&f.m)
	f.m.Payload = nil
	if f.sh != nil {
		f.sh.pool = append(f.sh.pool, f)
		return
	}
	net.pool = append(net.pool, f)
}

// netShard is one kernel shard's slice of the transport state: traffic
// counters, drop counter and wrapper/envelope pools, touched only from that
// shard's execution context (or the serial barrier).
type netShard struct {
	idx     int
	stats   Stats
	dropped uint64
	pool    []*inflight
	envs    []*envelope
}

// faultView is one shard's replica of the dynamic fault state. Every shard
// holds an identical copy, flipped by that shard's own pre-filed fault
// events at identical virtual times, so in-window reads never cross a shard
// boundary and the visible state is the same at every kernel count.
type faultView struct {
	down        []bool // directed link cuts, same indexing as lastArrival
	anyDown     bool
	nodeDown    []bool // crashed nodes
	anyNodeDown bool
}

func (s *netShard) grabEnv() *envelope {
	if n := len(s.envs); n > 0 {
		e := s.envs[n-1]
		s.envs = s.envs[:n-1]
		return e
	}
	return &envelope{sh: s}
}

func (s *netShard) grabInflight(n *Network) *inflight {
	if p := len(s.pool); p > 0 {
		f := s.pool[p-1]
		s.pool = s.pool[:p-1]
		return f
	}
	f := &inflight{net: n, sh: s}
	f.fn = f.deliver
	return f
}

// envelope is a pooled deferred send: a message whose delivery cannot be
// filed during the parallel window — its destination is on another shard,
// or its delay draws randomness. The window barrier's serial replay files
// it with its exact global key (see Network.fileEnvelope).
type envelope struct {
	sh *netShard // owning (source) shard pool
	at sim.Time  // virtual send time
	m  Message
}

// Network connects n nodes over a latency model. Each node registers exactly
// one delivery handler (its NIC). A network runs either on one kernel (New)
// or sharded across a MultiKernel (NewSharded), where each node's deliveries
// execute on the shard that owns it and cross-shard sends travel through
// window-barrier envelopes.
type Network struct {
	k        *sim.Kernel
	latency  LatencyModel
	handlers []Handler
	// lastArrival enforces FIFO per directed link: a message may not arrive
	// before one sent earlier on the same link. Flat n×n array indexed
	// src*n+dst — Send is the single hottest transport call and a map
	// lookup per message dominated it at large n. In a sharded network a
	// link's slot is touched either always from the source shard (links
	// whose sends file immediately) or always from the serial barrier
	// (deferred links) — never both, so no lock is needed.
	lastArrival []sim.Time
	stats       Stats
	// pool recycles in-flight message wrappers once delivered.
	pool []*inflight
	// down records one-way link cuts for failure injection (same indexing
	// as lastArrival); messages on a down link are silently dropped
	// (counted in Dropped). anyDown short-circuits the per-send check for
	// the overwhelmingly common fully-connected case.
	down    []bool
	anyDown bool
	Dropped uint64
	// OnDrop, when non-nil, receives the endpoints, kind and payload of
	// every dropped message before it vanishes, so the layer that pooled the
	// payload can reclaim it into the right shard's pool (a dropped
	// round-trip request has no reply to trigger the usual release; a
	// dropped reply has no receiver at all). atDelivery tells the two drop
	// sites apart: false for send-time drops (down links, drop-policy
	// losses), true for delivery-time drops (the destination crashed while
	// the message was in flight). ctxShard is the shard whose execution
	// context the drop happens in — the source's for a send-time drop, the
	// destination's for a delivery-time one — and the hook may only touch
	// that shard's pools. (The shard cannot tell the sites apart: on one
	// kernel, or on a link inside one shard, both are the same.) The hook
	// deliberately does not see the *Message: taking it would make every
	// caller's Message literal escape to the heap, and Send is the hottest
	// transport call in the simulator.
	OnDrop func(ctxShard int, atDelivery bool, src, dst NodeID, kind Kind, payload any)
	// DropPolicy, when non-nil, is consulted for every send that survives
	// the link/node checks and may declare the message lost (probabilistic
	// fault injection). It runs in the source shard's context and must be a
	// pure function of its arguments plus per-link state owned by that
	// shard, so the decision is identical at every kernel count.
	DropPolicy func(ctxShard int, src, dst NodeID, kind Kind) bool
	// fviews, when non-nil, enables fault mode: each kernel shard owns a
	// replica of the dynamic fault state (cut links, crashed nodes),
	// mutated only by that shard's own pre-filed fault events so no
	// cross-shard reads ever race. Index 0 is the only view on a
	// single-kernel network.
	fviews []*faultView
	// OnDeliver, when non-nil, observes every delivered message just before
	// its handler runs — in delivery order, which (with a draw-free latency
	// model) is a complete canonical description of the schedule. The
	// exhaustive-exploration checker hashes this sequence to deduplicate
	// schedules; keep the hook cheap, it sits on the delivery hot path.
	OnDeliver func(src, dst NodeID, kind Kind, size, area int)
	// Choice-delay state (EnableChoiceDelay): from chooseAfter onward every
	// send resolves a kernel choice point and stretches its latency by
	// choice × chooseQuantum, turning delivery order itself into an
	// enumerable decision. Single-kernel networks only.
	chooseAfter   sim.Time
	chooseQuantum sim.Time
	chooseSteps   int

	// Sharded-mode state (nil/empty on a single-kernel network):
	mk      *sim.MultiKernel
	kernels []*sim.Kernel // per-shard
	shardOf []int         // node -> shard
	shards  []*netShard
	// deferAll forces every cross-node send through a barrier envelope
	// because computing its delay draws randomness (jittered models).
	deferAll bool
}

// New creates a network for n nodes on kernel k using the given latency
// model (nil defaults to DefaultIB).
func New(k *sim.Kernel, n int, lat LatencyModel) *Network {
	if lat == nil {
		lat = DefaultIB()
	}
	return &Network{
		k:           k,
		latency:     lat,
		handlers:    make([]Handler, n),
		lastArrival: make([]sim.Time, n*n),
		down:        make([]bool, n*n),
	}
}

// NewSharded creates a network for n nodes partitioned across mk's shards
// by shardOf. The latency model must admit parallel execution (see
// ParallelLookahead — the caller is expected to have sized mk's window from
// it); deferAll is that probe's verdict on whether cross-node delays draw
// randomness.
func NewSharded(mk *sim.MultiKernel, shardOf []int, n int, lat LatencyModel, deferAll bool) *Network {
	if lat == nil {
		lat = DefaultIB()
	}
	net := &Network{
		latency:     lat,
		handlers:    make([]Handler, n),
		lastArrival: make([]sim.Time, n*n),
		down:        make([]bool, n*n),
		mk:          mk,
		shardOf:     shardOf,
		deferAll:    deferAll,
	}
	for i := 0; i < mk.Shards(); i++ {
		net.kernels = append(net.kernels, mk.Shard(i))
		net.shards = append(net.shards, &netShard{idx: i})
	}
	mk.SetEnvelopeFiler(net.fileEnvelope)
	return net
}

// linkIndex flattens a directed link into the per-link arrays.
func (n *Network) linkIndex(src, dst NodeID) int {
	return int(src)*len(n.handlers) + int(dst)
}

// N returns the number of attached nodes.
func (n *Network) N() int { return len(n.handlers) }

// Kernel returns the simulation kernel the network is attached to — nil on
// a sharded network, where there is no single kernel; use KernelFor.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// KernelFor returns the kernel that executes node id's events: the shard
// that owns the node, or the single kernel.
func (n *Network) KernelFor(id NodeID) *sim.Kernel {
	if n.mk != nil {
		return n.kernels[n.shardOf[id]]
	}
	return n.k
}

// Multi returns the owning MultiKernel (nil for a single-kernel network).
func (n *Network) Multi() *sim.MultiKernel { return n.mk }

// ShardCount returns the number of kernel shards (1 for a single kernel).
func (n *Network) ShardCount() int {
	if n.mk == nil {
		return 1
	}
	return n.mk.Shards()
}

// ShardOf returns the shard owning node id (0 on a single kernel).
func (n *Network) ShardOf(id NodeID) int {
	if n.shardOf == nil {
		return 0
	}
	return n.shardOf[id]
}

// Stats exposes the live traffic counters. Single-kernel networks only; a
// sharded network accumulates per shard — use TotalStats.
func (n *Network) Stats() *Stats { return &n.stats }

// TotalStats returns the run's traffic counters, summed across shards.
// Counter sums are order-independent, so the totals are bit-identical to
// the single-kernel run's.
func (n *Network) TotalStats() Stats {
	if n.mk == nil {
		return n.stats
	}
	var t Stats
	for _, s := range n.shards {
		for k := 0; k < int(numKinds); k++ {
			t.Msgs[k] += s.stats.Msgs[k]
			t.Bytes[k] += s.stats.Bytes[k]
		}
		t.TotalMsgs += s.stats.TotalMsgs
		t.TotalBytes += s.stats.TotalBytes
	}
	return t
}

// TotalDropped returns the cut-link drop count, summed across shards.
func (n *Network) TotalDropped() uint64 {
	if n.mk == nil {
		return n.Dropped
	}
	var t uint64
	for _, s := range n.shards {
		t += s.dropped
	}
	return t
}

// SetHandler installs the delivery handler (the NIC) for node id.
func (n *Network) SetHandler(id NodeID, h Handler) {
	n.handlers[id] = h
}

// CutLink drops all future messages from a to b (one direction).
func (n *Network) CutLink(a, b NodeID) {
	n.down[n.linkIndex(a, b)] = true
	n.anyDown = true
}

// RestoreLink re-enables the a→b link. The link's FIFO horizon is reset:
// every message sent while the link was down was dropped, so the first
// post-heal message must not be serialized behind the arrival time of
// pre-cut traffic that has long since drained.
func (n *Network) RestoreLink(a, b NodeID) {
	link := n.linkIndex(a, b)
	n.down[link] = false
	n.lastArrival[link] = 0
	n.anyDown = false
	for _, d := range n.down {
		if d {
			n.anyDown = true
			break
		}
	}
}

// EnableFaults switches the network into fault mode: every shard gets a
// replica of the dynamic fault state (cut links, crashed nodes) that the
// fault layer's pre-filed events mutate. With no faults ever filed the views
// stay all-up and the only per-send cost is a nil check and two false
// flags — the zero-fault tax the differential tests pin.
func (n *Network) EnableFaults() {
	shards := n.ShardCount()
	nodes := n.N()
	n.fviews = make([]*faultView, shards)
	for i := range n.fviews {
		n.fviews[i] = &faultView{
			down:     make([]bool, nodes*nodes),
			nodeDown: make([]bool, nodes),
		}
	}
}

// FaultsEnabled reports whether EnableFaults has been called.
func (n *Network) FaultsEnabled() bool { return n.fviews != nil }

// EnableChoiceDelay arms the schedule-exploration hook: every message sent
// at or after virtual time `after` resolves one kernel choice point with
// `steps` alternatives (sim.Kernel.Choose) and adds choice × quantum to its
// modelled latency. With a draw-free latency model this makes the delivery
// interleaving a pure function of the choice vector, which an exhaustive
// driver (internal/mcheck) enumerates depth-first. The time gate lets a
// litmus program run its warm-up phase on the default schedule — no choice
// points, no tree blow-up — and open the enumerated window only around the
// measured operations. Single-kernel networks only: the choice hook's draw
// order is the serial interleaving itself.
func (n *Network) EnableChoiceDelay(after, quantum sim.Time, steps int) {
	if n.mk != nil {
		panic("network: EnableChoiceDelay on a sharded network")
	}
	if steps < 2 || quantum <= 0 {
		panic("network: EnableChoiceDelay needs steps >= 2 and a positive quantum")
	}
	n.chooseAfter = after
	n.chooseQuantum = quantum
	n.chooseSteps = steps
}

// SetLinkFault flips the a→b link in shard sh's fault view. Healing resets
// the link's FIFO horizon (see RestoreLink); since lastArrival is owned by
// the shard that files the link's sends, only the source's owning shard
// performs the reset — the other shards just flip their view flag.
func (n *Network) SetLinkFault(sh int, a, b NodeID, isDown bool) {
	v := n.fviews[sh]
	link := n.linkIndex(a, b)
	v.down[link] = isDown
	if isDown {
		v.anyDown = true
		return
	}
	if sh == n.ShardOf(a) {
		n.lastArrival[link] = 0
	}
	v.anyDown = false
	for _, d := range v.down {
		if d {
			v.anyDown = true
			break
		}
	}
}

// SetNodeFault flips a node's crashed flag in shard sh's fault view.
func (n *Network) SetNodeFault(sh int, node NodeID, isDown bool) {
	v := n.fviews[sh]
	v.nodeDown[node] = isDown
	if isDown {
		v.anyNodeDown = true
		return
	}
	v.anyNodeDown = false
	for _, d := range v.nodeDown {
		if d {
			v.anyNodeDown = true
			break
		}
	}
}

// NodeFaulted reports whether node is crashed in shard sh's fault view.
func (n *Network) NodeFaulted(sh int, node NodeID) bool {
	if n.fviews == nil {
		return false
	}
	v := n.fviews[sh]
	return v.anyNodeDown && v.nodeDown[node]
}

// LinkFaulted reports whether the a→b link is cut in shard sh's fault view.
func (n *Network) LinkFaulted(sh int, a, b NodeID) bool {
	if n.fviews == nil {
		return false
	}
	v := n.fviews[sh]
	return v.anyDown && v.down[n.linkIndex(a, b)]
}

// faultDrop decides whether fault mode loses the message at send time; it
// runs in the source shard's context against that shard's view.
func (n *Network) faultDrop(sh int, link int, m *Message) bool {
	v := n.fviews[sh]
	if v.anyDown && v.down[link] {
		return true
	}
	if v.anyNodeDown && (v.nodeDown[m.Src] || v.nodeDown[m.Dst]) {
		return true
	}
	return n.DropPolicy != nil && n.DropPolicy(sh, m.Src, m.Dst, m.Kind)
}

// Send transmits m; delivery is scheduled on the kernel after the modelled
// latency, preserving FIFO order per directed link. The message is counted
// at send time. Sends to down links are dropped.
//
// The network copies m into a pooled in-flight wrapper: the caller's
// Message is not retained (and with escape analysis a stack literal stays
// on the stack). Handlers receive a *Message that is only valid for the
// duration of the delivery call; payloads are handed off as-is.
func (n *Network) Send(m *Message) { n.send(m, false) }

// SendExempt transmits m bypassing the fault checks. The recovery machinery
// uses it to synthesize completion errors on behalf of a crashed node (whose
// own sends would be dropped); it must be called from the execution context
// of the shard owning m.Src, exactly like Send.
func (n *Network) SendExempt(m *Message) { n.send(m, true) }

func (n *Network) send(m *Message, exempt bool) {
	if m.Size < HeaderBytes {
		m.Size = HeaderBytes
	}
	if n.mk != nil {
		n.sendSharded(m, exempt)
		return
	}
	n.stats.count(m)
	link := n.linkIndex(m.Src, m.Dst)
	if n.anyDown && n.down[link] {
		n.Dropped++
		if n.OnDrop != nil {
			n.OnDrop(0, false, m.Src, m.Dst, m.Kind, m.Payload)
		}
		return
	}
	if n.fviews != nil && !exempt && n.faultDrop(0, link, m) {
		n.Dropped++
		if n.OnDrop != nil {
			n.OnDrop(0, false, m.Src, m.Dst, m.Kind, m.Payload)
		}
		return
	}
	d := n.latency.Delay(m.Src, m.Dst, m.Size, n.k.Rand())
	if n.chooseSteps > 1 && n.k.Now() >= n.chooseAfter {
		meta := sim.ChoiceMeta{
			Src: int(m.Src), Dst: int(m.Dst),
			Kind: int(m.Kind), Size: m.Size, Area: m.Area,
			Now:     n.k.Now(),
			Base:    n.k.Now() + d,
			Floor:   n.lastArrival[link],
			Quantum: n.chooseQuantum,
		}
		d += n.chooseQuantum * sim.Time(n.k.ChooseMeta(n.chooseSteps, meta))
	}
	at := n.k.Now() + d
	if last := n.lastArrival[link]; at < last {
		at = last // FIFO: cannot overtake an earlier message on this link
	}
	n.lastArrival[link] = at
	var f *inflight
	if p := len(n.pool); p > 0 {
		f = n.pool[p-1]
		n.pool = n.pool[:p-1]
	} else {
		f = &inflight{net: n}
		f.fn = f.deliver
	}
	f.m = *m
	n.k.At(at, f.fn)
}

// sendSharded is the sharded transmit path; it executes on the shard owning
// m.Src. Loopbacks and — under a draw-free model — intra-shard sends file
// their delivery immediately (the push takes this shard's next key slot,
// exactly where the serial kernel pushed it). Cross-shard sends, and every
// cross-node send under a drawing model, are deferred as envelopes: the
// window barrier's serial replay computes their delay (drawing the shared
// RNG in serial send order), applies the link FIFO, and files the delivery
// into the destination shard at the same global key slot.
func (n *Network) sendSharded(m *Message, exempt bool) {
	sh := n.shardOf[m.Src]
	ss := n.shards[sh]
	ss.stats.count(m)
	link := n.linkIndex(m.Src, m.Dst)
	if n.anyDown && n.down[link] {
		ss.dropped++
		if n.OnDrop != nil {
			n.OnDrop(sh, false, m.Src, m.Dst, m.Kind, m.Payload)
		}
		return
	}
	if n.fviews != nil && !exempt && n.faultDrop(sh, link, m) {
		ss.dropped++
		if n.OnDrop != nil {
			n.OnDrop(sh, false, m.Src, m.Dst, m.Kind, m.Payload)
		}
		return
	}
	k := n.kernels[sh]
	if k.InWindow() && m.Src != m.Dst && (n.deferAll || n.shardOf[m.Dst] != sh) {
		env := ss.grabEnv()
		env.at = k.Now()
		env.m = *m
		k.LogEnvelope(env)
		return
	}
	// Immediate filing: loopback (zero-delay, draw-free — guaranteed by the
	// parallel-capability gate) or intra-shard under a draw-free model. In
	// serial phases (setup) the shared RNG is legal and ordered.
	var rng *rand.Rand
	if !k.InWindow() {
		rng = k.Rand()
	}
	d := n.latency.Delay(m.Src, m.Dst, m.Size, rng)
	at := k.Now() + d
	if last := n.lastArrival[link]; at < last {
		at = last
	}
	n.lastArrival[link] = at
	ds := n.shards[n.shardOf[m.Dst]]
	f := ds.grabInflight(n)
	f.m = *m
	// In-window immediate sends are intra-shard by construction (the
	// destination kernel is this kernel); serial-phase sends may cross
	// shards and file straight into the destination's queue.
	n.kernels[n.shardOf[m.Dst]].At(at, f.fn)
}

// fileEnvelope is the barrier replay's deferred-send filer (registered with
// the MultiKernel): compute the delay — drawing the shared RNG exactly
// where the serial kernel drew it — apply the link FIFO, and file the
// delivery into the destination shard with its resolved global key.
func (n *Network) fileEnvelope(envAny any, key uint64) {
	env := envAny.(*envelope)
	m := &env.m
	d := n.latency.Delay(m.Src, m.Dst, m.Size, n.mk.Rand())
	at := env.at + d
	link := n.linkIndex(m.Src, m.Dst)
	if last := n.lastArrival[link]; at < last {
		at = last
	}
	n.lastArrival[link] = at
	ds := n.shards[n.shardOf[m.Dst]]
	f := ds.grabInflight(n)
	f.m = *m
	n.kernels[n.shardOf[m.Dst]].PushKeyed(at, key, f.fn)
	env.m.Payload = nil
	env.sh.envs = append(env.sh.envs, env)
}
