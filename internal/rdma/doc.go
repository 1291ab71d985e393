// Package rdma models the network interface cards of §III-B: one-sided
// put/get with OS bypass (remote operations are served entirely inside
// message-delivery events — the target *process* is never scheduled), NIC
// locks on memory areas with FIFO queuing (so a put on an area is delayed
// until a get in progress finishes, Fig. 3), and remote atomics as an
// extension.
//
// The race detector is wired into this layer, matching §V-B ("implemented
// in the communication library of the run-time support system"). Two wire
// protocols are provided:
//
//   - ProtocolLiteral follows Algorithms 1–2 message by message: the
//     initiating library locks the remote area, fetches its clocks
//     (get_clock/get_clock_W), compares locally (Algorithm 3), moves the
//     data, runs update_clock/update_clock_W (Algorithm 5: fetch, max_clock,
//     write back), and unlocks.
//   - ProtocolPiggyback sends one request carrying the initiator's clock;
//     the home NIC checks and updates atomically under its local lock and
//     replies with the merged clock.
//
// Both protocols produce identical verdicts (the comparison happens against
// the same state, under the same lock); they differ only in message count
// and bytes, which is what experiment E-T2 measures. The literal protocol
// ships every clock in the paper's fixed 2+8n format; the piggyback
// protocol ships vclock's sparse wire format (System.ClockBytes). A run
// with no clock consumer — no detector and no observer (System.ClocksOn) —
// is uninstrumented: the runtime above keeps no process clock, so unlocks
// carry none and lock grants and barrier messages are header-only.
//
// Both sides of every operation are event-driven. The home side serves
// requests as pooled homeOp continuations inside message-delivery events
// (the target process is never scheduled); a write's invalidation round is
// state of the homeOp that opened it. Every record on the path is pooled,
// grabbed first and filled in place, and a payload lives in a buffer its
// reply keeps or in the parked initiator's one write buffer: an operation
// allocates only the result slice it returns
// (ARCHITECTURE.md, "Who owns the bytes"). The initiator side is symmetric
// since the CPS conversion: an operation is a pooled initOp whose process
// issues the first request and parks exactly once — every intermediate hop
// (lock grants, the literal protocol's clock fetches, data replies)
// completes through pre-bound continuations in event context, with each
// follow-up phase filed via sim.Kernel.Defer into the very slot a per-hop
// process wakeup would occupy. A remote operation therefore costs zero
// goroutine scheduling beyond its single park, and that park is two
// coroutine switches with the kernel's driver, not a trip through the Go
// scheduler.
//
// Orthogonal to the wire protocol, the NICs serve accesses under a
// pluggable coherence protocol (internal/coherence). Write-update — the
// default and the model's original behaviour — keeps the home copy as the
// only copy, so every access is a home round trip and the detector sees
// everything. Write-invalidate caches whole areas at readers: a read miss
// fetches the area (KindFetchReq/KindFetchReply, write clock piggybacked),
// a hit is served locally with no messages, and a write completes only
// after every other copy is invalidated and acknowledged
// (KindInval/KindInvalAck), the home holding the area lock for the whole
// round so no fetch can revalidate a copy mid-write. The policy decisions
// and replica bookkeeping live in internal/coherence; this package owns
// only the messages and the locking.
//
// Under a partitioned multi-kernel run (sim.MultiKernel) every NIC executes
// on the kernel shard that owns its node, and the per-operation pools are
// sharded with it: a pooled struct belongs to the shard that grabbed it,
// releases on a foreign shard ride a return bin home at the next window
// barrier, and System.PoolBalanceShard audits each shard to zero after
// clean runs. Race reports flush through the barrier's ordered replay so
// the shared collector sees them in serial detection order.
package rdma
