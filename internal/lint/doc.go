// Package lint implements dsmlint, the static half of the repository's
// determinism story: compile-time enforcement of the source invariants
// the runtime differential suites can only catch after a violation
// executes. The framework mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) so the passes read like stock vet checks,
// but it is built entirely on the standard library: packages load through
// `go list -export` build-cache export data (load.go) in standalone mode,
// or through the `go vet -vettool` unitchecker protocol (cmd/dsmlint).
//
// # Passes
//
//   - determinism: flags wall-clock reads (time.Now, time.Since),
//     package-level math/rand draws, un-annotated `range` over maps and
//     environment reads (os.Getenv, os.LookupEnv, os.Environ) inside the
//     deterministic core — the packages whose every executed
//     instruction feeds a bit-reproducible fingerprint (CorePackages:
//     internal/sim, internal/rdma, internal/coherence, internal/network,
//     internal/core, internal/fault, internal/mcheck).
//   - poolown: flags pooled structs grabbed from Get/Put-shaped pool
//     helpers but never released, returned, stored or handed off, and
//     borrowed OnAccess reports published without Clone(). Pool pairs are
//     matched by shape — a grab-prefixed method whose receiver also has a
//     release-prefixed sibling with the same name suffix taking the
//     grabbed type back — which keeps NIC.Get/Put (DSM data operations)
//     out. Within one statement list it also flags whatever touches a
//     value after its release: a second release (requests, replies,
//     barrier records, a reader's share of a merged barrier clock), any
//     other use, and any use of a local view of a //dsmlint:payload
//     buffer, which stays with its struct across release. Runs on the
//     core and on internal/dsm, which handles the barrier records.
//   - eventctx: annotation-driven call-graph discipline for the
//     kernel's event-slot primitives. Functions annotated
//     //dsmlint:eventctx (sim.Kernel.Defer, Kernel.LogOrdered) may only
//     be called from event context: a function annotated
//     //dsmlint:eventhandler, or a func literal handed to an eventctx or
//     //dsmlint:eventspawn call (Kernel.Schedule, At, PushKeyed).
//     Calling an eventhandler from anywhere else is flagged too, so the
//     annotated region is closed under the reachable call graph.
//
// # Annotation language
//
// Annotations are comment directives (no space after the //, like
// //go:noinline), attached to the line they trail, the line directly
// above, or — for functions — the declaration's doc comment. Anything
// after the directive name is a free-form reviewed-by reason.
//
//	//dsmlint:ordered       this map range is order-insensitive (commutative
//	                        fold, or results sorted before any fingerprint)
//	//dsmlint:wallclock     reviewed wall-clock read feeding host-side
//	                        metrics only, never virtual state
//	//dsmlint:eventctx      callable only from event context; func args of
//	                        a call run in event context
//	//dsmlint:eventhandler  on a func decl: the body executes in event
//	                        context. On a call line: reviewed assertion
//	                        that this one site runs in event context (the
//	                        escape for context-polymorphic helpers with a
//	                        guarded event-only branch)
//	//dsmlint:eventspawn    callable from anywhere; func args run in event
//	                        context
//	//dsmlint:core          marks a file's package as deterministic core
//	                        regardless of import path (test fixtures)
//	//dsmlint:payload       on a field or method of a pooled struct: yields
//	                        a view of a buffer the struct keeps across
//	                        release, so a local copy dies with the release
//
// Cross-package callee annotations are resolved by re-parsing the
// declaring package's source directory (annotations are comments, which
// export data does not carry).
//
// # Drivers
//
// `go run ./cmd/dsmlint ./...` runs standalone; CI drives the same
// binary one package at a time via `go vet -vettool`. Exit status 0 is
// clean, 2 means findings. The golden fixtures under testdata/src each
// seed the mutants their pass exists to catch (fixture_test.go proves
// both directions: every seeded mutant is flagged, every annotated twin
// is silent, and the harness itself fails when the suite is disabled).
package lint
