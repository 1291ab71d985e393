// Package sim is a deterministic discrete-event simulation kernel.
//
// Simulated processes are ordinary Go functions, and exactly one of them
// runs at a time. Scheduling is one driver and asymmetric coroutines:
// Kernel.Run is the only code that pops events and every event callback
// runs on its goroutine; Spawn wraps a process body in an iter.Pull
// coroutine, an event that resumes the process switches into it (next), and
// Proc.Park switches back (yield). A wakeup is two direct coroutine
// switches — no scheduler round trip, so a single-kernel run costs the same
// at any GOMAXPROCS — and a process that is its own next event still goes
// through the driver: event handlers stay on one hot stack. When a run ends
// with processes still parked (deadlock, limit, Stop), Run unwinds them
// after reading its report, so no coroutine outlives it. All cross-process
// signalling is routed through the event queue, so a run is a pure function
// of (programs, configuration, seed): the same seed always yields the same
// interleaving. Race *manifestation* is explored by sweeping
// seeds, which is how the harness realises the paper's operational
// definition of a race ("the result of a computation differs between
// executions", §III-C).
//
// For operations that advance as event-driven state machines instead of
// parked goroutines (the RDMA initiator path), the kernel provides
// first-class continuation scheduling: Kernel.Defer files a continuation in
// exactly the (time, seq) slot a Proc.Ready wakeup pushed at the same
// moment would occupy, Proc.Await is the single join point such a chain
// releases, and Proc.Relabel keeps deadlock reports naming the phase
// actually stuck while the process stays parked across phases.
//
// The future-event queue is a hierarchical timing wheel (wheel.go): O(1)
// amortised schedule and pop, byte-identical (time, seq) execution order to
// the container/heap queue it replaced, with same-instant wakeups served
// from a FIFO now-queue that skips the wheel entirely.
//
// A simulation can also be partitioned across K cooperating shard kernels
// (MultiKernel, multi.go): each shard owns a disjoint set of nodes and runs
// conservative time windows — bounded by the network's minimum cross-node
// latency — on its own goroutine, while a serial window barrier replays the
// shards' execution logs in exact global (time, key) order to assign push
// sequence numbers, draw deferred latency randomness, and file cross-shard
// deliveries into their exact (time, seq) slots. The partitioned run is
// bit-identical to the single-kernel run for any shard count; runs whose
// processes draw the shared RNG mid-window are inherently serial and must
// say so (the draw panics otherwise). PartitionNodes (partition.go)
// supplies the round-robin and locality-aware node→shard policies.
//
// Two optimisations cut the window/barrier overhead without touching the
// equivalence: adaptive window extension runs a window as up to a budget of
// lookahead-sized sub-rounds while no cross-shard envelope or ordered
// action appears (the budget doubles after quiet windows and resets on
// traffic — a pure function of replayed state, so placement is
// deterministic); and the one synchronous replay that ends each window
// merges through a loser tree with per-shard run detection, O(log K) per
// record worst case and O(1) on runs. Nothing here is configurable. The
// only choice — how a sub-round reaches the shards — is read from the host:
// with GOMAXPROCS > 1 runner goroutines are released through a spin
// barrier, with GOMAXPROCS == 1 the coordinator drives the shards inline;
// results are bit-identical either way. MultiKernelStats counts what fired.
package sim
