package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// roundResult is what one child process reports for one round of a
// workload: a fresh testbed built, one measured phase, the output
// digest and the invariant checks.
type roundResult struct {
	Traced bool `json:"traced"`
	// Digest hashes the round's virtual-time outputs and counters; the
	// same seed must give the same digest, traced or not.
	Digest string `json:"digest"`
	// Problems lists failed output checks (empty when correct).
	Problems []string `json:"problems"`

	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	// Set-up spans in host seconds: testbed.New, service registration,
	// pre-pull / pre-deploy.
	NewS       float64 `json:"new_s"`
	RegisterS  float64 `json:"register_s"`
	PredeployS float64 `json:"predeploy_s"`

	// The measured phase.
	WallS       float64            `json:"wall_s"`
	CPUS        float64            `json:"cpu_s"`
	AllocBytes  float64            `json:"alloc_bytes"`
	LiveHeapB   float64            `json:"live_heap_bytes"`
	PeakRSSB    float64            `json:"peak_rss_bytes"`
	GCCycles    float64            `json:"gc_cycles"`
	MutexWaitS  float64            `json:"mutex_wait_s"`
	SchedP50S   float64            `json:"sched_p50_s"`
	SchedP99S   float64            `json:"sched_p99_s"`
	LayerShares map[string]float64 `json:"layer_shares,omitempty"`

	// RefS is the reference kernel's time around the round: the mean
	// of its timings just before and just after (parent-side).
	RefS float64 `json:"-"`

	// Workload counters for the per-layer table (traced rounds).
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (r *roundResult) setupS() float64 { return r.NewS + r.RegisterS + r.PredeployS }

func (r *roundResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// round is the child-side context of one round. Workloads build their
// testbed on clk (the counting wrapper in a traced round), mark the
// measured phase with begin/end, and fill res.
type round struct {
	seed   int64
	traced bool
	// setupOnly stops the workload after set-up: the run's extra
	// set-up samples (see parent).
	setupOnly bool
	// drain lets the simulation run on after the measured phase until
	// every timer-held state has expired, then checks that nothing
	// leaked. The first round of each run drains: rounds of a run are
	// identical (their digests are compared), and the load drain alone
	// costs about twice its measured phase in FlowMemory expiry sweeps.
	drain bool
	virt  *vclock.Virtual
	clk   vclock.Clock
	cc    *countingClock // nil when untraced
	res   roundResult

	t0      time.Time
	cpu0    float64
	m0      []metrics.Sample
	cc0     clockCounts
	profile bytes.Buffer
}

func newRound(seed int64, traced bool) *round {
	r := &round{seed: seed, traced: traced, virt: vclock.New()}
	r.clk = r.virt
	if traced {
		r.cc = &countingClock{Clock: r.virt}
		r.clk = r.cc
	}
	r.res.Traced = traced
	return r
}

// span times fn into *dst in host seconds.
func span(dst *float64, fn func() error) error {
	t := time.Now()
	err := fn()
	*dst += time.Since(t).Seconds()
	return err
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntimeMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// begin starts the measured phase: a collection first, so the phase
// does not pay for set-up garbage, then the baselines, and the CPU
// profile in a traced round.
func (r *round) begin() error {
	runtime.GC()
	if r.traced {
		if err := pprof.StartCPUProfile(&r.profile); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		r.cc0 = r.cc.counts()
	}
	r.m0 = readRuntimeMetrics()
	r.cpu0 = processCPU()
	r.t0 = time.Now()
	return nil
}

// end closes the measured phase and records its host cost; the heap
// left after a forced collection is the state the workload retains.
func (r *round) end() error {
	r.res.WallS = time.Since(r.t0).Seconds()
	r.res.CPUS = processCPU() - r.cpu0
	m1 := readRuntimeMetrics()
	if r.traced {
		pprof.StopCPUProfile()
		cc1 := r.cc.counts()
		r.counter("vclock.events", float64(cc1.events-r.cc0.events))
		r.counter("vclock.goroutines", float64(cc1.goroutines-r.cc0.goroutines))
		r.counter("vclock.sleeps", float64(cc1.sleeps-r.cc0.sleeps))
		shares, err := layerShares(r.profile.Bytes())
		if err != nil {
			return err
		}
		r.res.LayerShares = shares
	}
	r.res.AllocBytes = float64(m1[0].Value.Uint64() - r.m0[0].Value.Uint64())
	r.res.GCCycles = float64(m1[1].Value.Uint64() - r.m0[1].Value.Uint64())
	r.res.MutexWaitS = m1[2].Value.Float64() - r.m0[2].Value.Float64()
	r.res.SchedP50S, r.res.SchedP99S = histDeltaQuantiles(r.m0[3].Value.Float64Histogram(), m1[3].Value.Float64Histogram())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.LiveHeapB = float64(ms.HeapAlloc)
	return nil
}

// counter records a workload counter for the per-layer table.
func (r *round) counter(name string, v float64) {
	if r.res.Counters == nil {
		r.res.Counters = map[string]float64{}
	}
	r.res.Counters[name] = v
}

// histDeltaQuantiles returns the median and 99th percentile of the
// samples a runtime/metrics histogram gained between two reads, each as
// the upper edge of the bucket holding it (the lower edge for the
// unbounded last bucket).
func histDeltaQuantiles(a, b *metrics.Float64Histogram) (p50, p99 float64) {
	delta := make([]uint64, len(b.Counts))
	var total uint64
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	q := func(p float64) float64 {
		if total == 0 {
			return 0
		}
		rank := uint64(math.Ceil(p * float64(total)))
		var seen uint64
		for i, c := range delta {
			seen += c
			if seen >= rank {
				if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
					return hi
				}
				return b.Buckets[i]
			}
		}
		return b.Buckets[len(b.Buckets)-1]
	}
	return q(0.50), q(0.99)
}
