// Package vclock implements the logical-clock machinery the paper's race
// detector is built on: vector clocks with the Mattern comparison lattice
// (Algorithm 3 / Lemma 1), the max-merge of Algorithm 4, matrix clocks
// (the per-process clock matrix V_Pi of §IV-B), Lamport scalar clocks, and
// the binary encodings that account for clock bytes on the wire: the fixed
// 2+8n format, and the wire format of wire.go (sparse bitmap + live
// components, fixed, or the covered marker, whichever the clock needs).
//
// The Masked representation (masked.go) couples a clock with a word-granular
// occupancy bitmap so every hot-path walk skips provably-zero spans —
// O(communicating processes) per access instead of O(cluster size) — while
// staying observationally identical to the dense operations (pinned by a
// lockstep shadow suite and fuzzer). The bitmap is what the sparse wire form
// ships in place of the zero components.
//
// Every compare and max, dense or masked, runs through the branch-free
// kernels of kernels.go: cmpBlock, maxBlock and maxCmpBlock over equal-length
// component runs, and the cmpStep/maxCmpStep arithmetic they share with the
// masked bit-scan arms. They take no conditional jump per component
// (m := max(a, x); lt |= m ^ a; gt |= m ^ x, unconditional stores), because
// which side of a component pair is ahead is what a race detector cannot
// predict: the branchy loops they replaced cost ≈5 ns per compared component
// on cluster traffic (≈1.3 µs per 256-wide compare) where fixed-pair
// microbenchmarks, whose one pair the predictor learns, read ≈1.2 ns. Flags
// are "nonzero: seen"; early exit is per 64-component block, not per
// element. A per-element reference in kernels_test.go is the oracle for the
// kernels and for everything built on them.
package vclock
