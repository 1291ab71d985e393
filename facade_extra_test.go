package dsmrace

import (
	"strings"
	"testing"

	"dsmrace/internal/network"
	"dsmrace/internal/sim"
)

func TestWordGranularityThroughFacade(t *testing.T) {
	spec := RunSpec{
		Procs:       3,
		Seed:        1,
		Detector:    "vw-exact",
		Granularity: "word",
		Setup:       func(c *Cluster) error { return c.Alloc("slots", 0, 3) },
		Program: func(p *Proc) error {
			return p.Put("slots", p.ID(), Word(p.ID()))
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("disjoint-slot writes flagged at word granularity: %v", res.Races)
	}
}

func TestWordGranularityRejectsLiteral(t *testing.T) {
	spec := racySpec(1)
	spec.Granularity = "word"
	spec.Protocol = "literal"
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "piggyback") {
		t.Fatalf("err = %v", err)
	}
}

func TestCustomLatencyModel(t *testing.T) {
	// A much slower network stretches virtual completion time.
	run := func(lat network.LatencyModel) Time {
		spec := racySpec(1)
		spec.Trace = false
		spec.Latency = lat
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration
	}
	fast := run(network.Constant{L: 100 * sim.Nanosecond})
	slow := run(network.Constant{L: 100 * sim.Microsecond})
	if slow <= fast {
		t.Fatalf("latency model ignored: %v vs %v", fast, slow)
	}
}

func TestTopologyLatencyThroughFacade(t *testing.T) {
	spec := racySpec(1)
	spec.Trace = false
	spec.Latency = network.Hops{Topo: network.Ring{N: 3}, PerHop: sim.Microsecond, PerByte: 1}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount == 0 {
		t.Fatal("races should be detected regardless of topology")
	}
}

func TestScoreDetectorNameFlows(t *testing.T) {
	res, err := Run(racySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	score, err := ScoreDetector(res, "vw-exact")
	if err != nil {
		t.Fatal(err)
	}
	if score.DetectorName != "vw-exact" {
		t.Fatalf("name = %q", score.DetectorName)
	}
	if score.TruePairs == 0 {
		t.Fatal("racy spec must have true pairs")
	}
}
