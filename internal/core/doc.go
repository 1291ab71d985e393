// Package core implements the paper's contribution: an online race-condition
// detector for RDMA-based distributed shared memory built purely on vector
// clocks (§IV, Algorithms 1–5).
//
// Every shared memory area carries two clocks — a general-purpose clock V
// updated by every access and a write clock W updated by writes only
// (§IV-A). An incoming operation carries the initiator's vector clock K
// (ticked before the operation, Algorithm 1/2's update_local_clock). A
// *write* races iff K is concurrent with V: some prior access is causally
// unrelated to the write. A *read* races iff K is concurrent with W: it only
// conflicts with prior writes, which is exactly how the W clock eliminates
// the false positives that concurrent read-only accesses would otherwise
// produce (Fig. 4, §IV-D).
//
// The package exposes the decision logic both as a stateful per-area
// Detector (used by the piggyback protocol, where the home NIC checks and
// updates under its local lock) and as pure check functions (used by the
// literal protocol, where the initiating library fetches the remote clocks,
// compares locally per Algorithm 3 and writes back merged clocks per
// Algorithms 4–5).
//
// Per §IV-D a race is signalled, never fatal, so a racy program pays for
// every report and the reporting path is held to the same standard as the
// check itself: an area state builds its report in a ReportScratch it owns
// (OnAccess allocates nothing, racing or not; the report is valid until the
// state's next OnAccess), and the Collector retains a report by building its
// copy in place in slabs it owns — report chunks, prior-access chunks and the
// intern table's clock arena (intern.go) — with no allocation per report.
// Retained reports share clock snapshots by value and are read-only.
package core
