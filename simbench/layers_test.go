package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestLayerOf(t *testing.T) {
	const m = "github.com/c3lab/transparentedge/internal/"
	for _, tc := range []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"repo leaf", []string{m + "core.(*Controller).handlePacketIn", "runtime.goexit"}, "core"},
		{"generic repo leaf", []string{m + "vclock.(*Mailbox[...]).Send", m + "openflow.(*Switch).process"}, "vclock"},
		{"map probe charged to caller", []string{"runtime.mapaccess2_fast64", m + "openflow.(*Switch).process"}, "openflow"},
		{"stdlib charged to caller", []string{"sort.insertionSort", "sort.Sort", m + "core.(*FlowMemory).sweep"}, "core"},
		{"futex is scheduler", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{"park from vclock is scheduler", []string{"runtime.gopark", "runtime.chanrecv", "runtime.chanrecv1", m + "vclock.(*waiter).wait"}, "runtime.sched"},
		{"ready is scheduler", []string{"runtime.ready", "runtime.goready.func1", "runtime.systemstack", "runtime.goready", "runtime.send", "runtime.chansend", m + "vclock.(*waiter).wake"}, "runtime.sched"},
		{"mark worker is gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{"memclr under sweep is gc", []string{"runtime.memclrNoHeapPointers", "runtime.(*mspan).sweep", "runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		{"assist from allocation is gc", []string{"runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", m + "netem.NewPacket"}, "runtime.gc"},
		{"stack copy", []string{"runtime.memmove", "runtime.copystack", "runtime.newstack", "runtime.morestack", m + "vclock.(*Virtual).Go.func1"}, "runtime.stack"},
		{"unwinder is stack", []string{"runtime.pcvalue", "runtime.(*unwinder).next", "runtime.copystack"}, "runtime.stack"},
		{"allocator", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", m + "core.(*Controller).installRedirect"}, "runtime.malloc"},
		{"memmove in growslice charged to caller", []string{"runtime.memmove", "runtime.growslice", m + "metrics.(*Series).Add"}, "metrics"},
		{"unnamed internal package", []string{m + "cluster.(*DockerCluster).Instances", m + "core.(*Controller).gather"}, "other"},
		{"benchmark program", []string{"main.loadPhase", "main.runLoadN.func1"}, "other"},
		{"nothing decides", []string{"runtime.memmove", "runtime.systemstack"}, "other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestLayerNamesCoverBuckets(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layerNames {
		known[l] = true
	}
	for l := range repoLayers {
		if !known[l] {
			t.Errorf("repository layer %q missing from layerNames", l)
		}
	}
	for _, b := range runtimeBuckets {
		if !known[b.bucket] {
			t.Errorf("runtime bucket %q missing from layerNames", b.bucket)
		}
	}
}

// TestDecodeProfile decodes a real profile written by runtime/pprof (the
// goroutine profile: deterministic, unlike a CPU profile, and in the
// same protobuf format) and finds this test's own frame in it.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for i, f := range s.frames {
			if strings.HasSuffix(f, ".TestDecodeProfile") {
				found = true
				if i == 0 {
					t.Errorf("the test's frame is the leaf; want the stack below the profile writer")
				}
			}
		}
	}
	if !found {
		t.Fatalf("no sample holds the test's own frame; decoded %d samples", len(samples))
	}
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layerNames {
		v, ok := shares[l]
		if !ok {
			t.Errorf("layer %q missing from shares", l)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("decodeProfile accepted non-gzip input")
	}
}
