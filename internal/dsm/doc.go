// Package dsm is the distributed-shared-memory runtime of §III: a cluster
// of processes, each mapping a private and a public memory segment, joined
// by a simulated RDMA interconnect. Programs written against Proc's API
// (Put/Get/Lock/Unlock/Barrier/collectives) execute deterministically under
// a seeded discrete-event kernel, with the paper's race detector wired into
// the communication library exactly as §V-B prescribes.
//
// The runtime is coherence-protocol agnostic: Proc.Get/Put route through
// the NIC layer, which serves them under the configured
// internal/coherence.Protocol (single-copy write-update by default,
// directory-based write-invalidate as the alternative). Results carry both
// the network statistics and the protocol's replica statistics, so a
// workload can be compared across protocols without touching its program.
//
// Barriers exchange clocks in the NIC layer's pooled barrier records: an
// arrival lends the coordinator the parked process's clock, and every
// release of an epoch shares the one merged clock the coordinator built.
package dsm
