package rdma

import "dsmrace/internal/vclock"

// BarrierMsg is the pooled payload of a KindBarrier message: a participant's
// arrival at the coordinator or the coordinator's release of a participant
// (Release set). The runtime above fills it in place, the receiving handler
// releases it, the drop hook reclaims one lost in transit. On a run whose
// clocks are off (System.ClocksOn) neither direction carries a clock.
type BarrierMsg struct {
	Proc, Epoch int
	Release     bool
	Clock       vclock.Masked // arrival: aliases the parked process's live clock
	Merged      *BarrierClock // release: one reference to the epoch's merged clock
	Obs         vclock.VC     // causal observation clock (a fresh copy; nil unless causal)
	owner       int32
}

// BarrierClock is one barrier epoch's merged clock, shared by every release
// of the epoch: written by the coordinator until it sends the first release,
// immutable from then on, recycled when the last of its refs readers lets go.
// Its mask is the union of the arrival masks, so releases ship sparse when
// the participants' clocks are.
type BarrierClock struct {
	C     vclock.Masked
	refs  int
	owner int32
}

// GrabBarrierMsg takes a barrier message from this node's pool shard.
func (n *NIC) GrabBarrierMsg() *BarrierMsg {
	ps := n.ps
	ps.balance.BarrierMsgs++
	var m *BarrierMsg
	if k := len(ps.bmsgPool); k > 0 {
		m, ps.bmsgPool = ps.bmsgPool[k-1], ps.bmsgPool[:k-1]
	} else {
		m = &BarrierMsg{}
	}
	m.owner = int32(ps.idx)
	return m
}

// ReleaseBarrierMsg recycles a handled barrier message, dropping its
// reference to the merged clock if it carries one.
func (n *NIC) ReleaseBarrierMsg(m *BarrierMsg) { n.ps.releaseBarrierMsg(m) }

func (ps *shardPools) releaseBarrierMsg(m *BarrierMsg) {
	if m.Merged != nil {
		ps.releaseBarrierClock(m.Merged)
	}
	owner := m.owner
	*m = BarrierMsg{}
	if int(owner) == ps.idx {
		ps.balance.BarrierMsgs--
		ps.bmsgPool = append(ps.bmsgPool, m)
		return
	}
	ps.ret[owner].bmsgs = append(ps.ret[owner].bmsgs, m)
}

// GrabBarrierClock takes a zeroed merged-clock buffer, one component per
// node, that refs readers will each release once.
func (n *NIC) GrabBarrierClock(refs int) *BarrierClock {
	ps := n.ps
	ps.balance.BarrierClocks++
	ps.bclockGrabs++
	var c *BarrierClock
	if k := len(ps.bclockPool); k > 0 {
		c, ps.bclockPool = ps.bclockPool[k-1], ps.bclockPool[:k-1]
		clear(c.C.V)
		clear(c.C.M)
	} else {
		c = &BarrierClock{C: vclock.NewMasked(n.sys.space.N())}
	}
	c.refs, c.owner = refs, int32(ps.idx)
	return c
}

// AbandonBarrierClock recycles the merged clock of an epoch the run left open.
func (n *NIC) AbandonBarrierClock(c *BarrierClock) {
	c.refs = 1
	n.ps.releaseBarrierClock(c)
}

// releaseBarrierClock drops one reference. Readers on other shards run
// concurrently, so theirs travel home through the return bin (settlePools).
func (ps *shardPools) releaseBarrierClock(c *BarrierClock) {
	if int(c.owner) != ps.idx {
		ps.ret[c.owner].bclocks = append(ps.ret[c.owner].bclocks, c)
		return
	}
	if c.refs--; c.refs == 0 {
		ps.balance.BarrierClocks--
		ps.bclockPool = append(ps.bclockPool, c)
	}
}
