package main

import (
	"runtime"
	"testing"
)

// small runs each workload at a size that takes well under a second.
var small = map[string]func(r *round) error{
	"load":     func(r *round) error { return runLoadN(r, 2000) },
	"replay":   func(r *round) error { return runReplayN(r, 1000) },
	"mobility": func(r *round) error { return runMobilityN(r, 200) },
}

// oneProc runs the test at the benchmark's GOMAXPROCS: only there are
// the simulator's outputs reproducible.
func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(roundProcs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func runSmall(t *testing.T, name string, r *round) roundResult {
	t.Helper()
	r.drain = true
	if err := small[name](r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(r.res.Problems) > 0 {
		t.Fatalf("%s: output checks failed: %v", name, r.res.Problems)
	}
	if r.res.Digest == "" || r.res.Attempted == 0 {
		t.Fatalf("%s: empty round result %+v", name, r.res)
	}
	return r.res
}

// TestCountingClockSameDigest: routing every clock call through the
// counting wrapper leaves the simulated outputs unchanged, and the
// wrapper does see the workload's scheduling.
func TestCountingClockSameDigest(t *testing.T) {
	oneProc(t)
	for name := range small {
		bare := runSmall(t, name, newRound(3, false))
		r := newRound(3, false)
		r.cc = &countingClock{Clock: r.virt}
		r.clk = r.cc
		counted := runSmall(t, name, r)
		if bare.Digest != counted.Digest {
			t.Errorf("%s: digest %s through the counting clock, %s on the bare clock", name, counted.Digest, bare.Digest)
		}
		c := r.cc.counts()
		if c.events == 0 || c.sleeps == 0 || c.events < c.sleeps {
			t.Errorf("%s: implausible clock counts %+v", name, c)
		}
	}
}

// TestTracedRoundSameDigest: a fully traced round (counting clock, CPU
// profile, spans, table samples) reproduces the untraced digest and
// fills the per-layer inputs.
func TestTracedRoundSameDigest(t *testing.T) {
	oneProc(t)
	for name := range small {
		plain := runSmall(t, name, newRound(5, false))
		traced := runSmall(t, name, newRound(5, true))
		if plain.Digest != traced.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", name, traced.Digest, plain.Digest)
		}
		if traced.LayerShares == nil || traced.Counters["vclock.events"] == 0 {
			t.Errorf("%s: traced round lacks layer shares or clock counts", name)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	oneProc(t)
	a := runSmall(t, "load", newRound(1, false))
	b := runSmall(t, "load", newRound(2, false))
	if a.Digest == b.Digest {
		t.Errorf("seeds 1 and 2 gave the same load digest %s", a.Digest)
	}
}
