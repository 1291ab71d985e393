// Package determ is a dsmlint fixture: a miniature deterministic core
// seeded with the exact mutants the determinism pass exists to catch —
// an unsorted map-range fingerprint fold, wall-clock reads, a draw from
// the process-global RNG, and environment-steered modes — next to their
// annotated/rewritten twins that must stay silent.
//
//dsmlint:core
package determ

import (
	"math/rand"
	"os"
	"time"
)

// fingerprint is the seeded mutant: the iteration order of the range
// leaks straight into the non-commutative fold.
func fingerprint(counters map[int]uint64) uint64 {
	var h uint64
	for k, v := range counters { // want `map range: iteration order is randomised`
		h = h*31 + uint64(k) + v
	}
	return h
}

// fingerprintCommutative folds with xor, which commutes; the annotation
// records the review.
func fingerprintCommutative(counters map[int]uint64) uint64 {
	var h uint64
	//dsmlint:ordered xor of key*value commutes
	for k, v := range counters {
		h ^= uint64(k) * v
	}
	return h
}

func stamp() int64 {
	return time.Now().UnixNano() // want `wall clock: time.Now reads host time`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `wall clock: time.Since reads host time`
}

// hostMetric is the reviewed exception shape: the value feeds a
// host-side metric, never virtual state.
func hostMetric() int64 {
	//dsmlint:wallclock barrier-overhead metric only
	return time.Now().UnixNano()
}

func jitter() int {
	return rand.Intn(8) // want `global RNG: math/rand.Intn draws the process-global source`
}

// seeded draws a private source, which is the sanctioned shape.
func seeded() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(8)
}

// barrierMode is the env-steered mode mutant: a code path selected from
// outside the program, invisible to every caller and test.
func barrierMode() bool {
	return os.Getenv("DETERM_BARRIER") == "spin" // want `environment: os.Getenv steers the deterministic core`
}

func extensionCap() (string, bool) {
	return os.LookupEnv("DETERM_EXT") // want `environment: os.LookupEnv steers the deterministic core`
}

func knobs() int {
	return len(os.Environ()) // want `environment: os.Environ steers the deterministic core`
}

// hostname reads the os package without touching the environment.
func hostname() string {
	h, _ := os.Hostname()
	return h
}

// sliceRange must not be confused with a map range.
func sliceRange(xs []uint64) uint64 {
	var h uint64
	for _, v := range xs {
		h = h*31 + v
	}
	return h
}
