package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists are
// the benchmark's contract with BENCHMARK.json: an untraced run prints
// every end-to-end metric, a traced run every per-layer metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"alloc_bytes_per_op", "B"},
	{"live_heap_mib", "MiB"},
	{"peak_rss_mib", "MiB"},
}

var perLayer = []metricDef{
	{"failed_share", "share"},
	{"tracing_overhead_share", "share"},
	{"vclock.cpu_share", "share"},
	{"vclock.events_per_op", "count/op"},
	{"vclock.goroutines_per_op", "count/op"},
	{"vclock.sleeps_per_op", "count/op"},
	{"runtime.sched.cpu_share", "share"},
	{"runtime.gc.cpu_share", "share"},
	{"runtime.stack.cpu_share", "share"},
	{"runtime.malloc.cpu_share", "share"},
	{"runtime.mutex_wait_us_per_op", "us"},
	{"runtime.sched_latency_p50_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"netem.cpu_share", "share"},
	{"netem.leaked_packets", "count"},
	{"openflow.cpu_share", "share"},
	{"openflow.handle_packet_ns", "ns"},
	{"openflow.punt_ratio", "share"},
	{"openflow.flow_table_peak", "count"},
	{"openflow.microflow_hit_ratio", "share"},
	{"core.cpu_share", "share"},
	{"core.packet_ins_per_op", "count/op"},
	{"core.memory_hit_ratio", "share"},
	{"core.candidate_hit_ratio", "share"},
	{"core.flows_installed_per_op", "count/op"},
	{"core.flowmemory_entries", "count"},
	{"core.rehome_us", "us"},
	{"core.deploys", "count"},
	{"core.deploy_failures", "count"},
	{"core.audit_diff", "count"},
	{"kube.cpu_share", "share"},
	{"containerd.cpu_share", "share"},
	{"docker.cpu_share", "share"},
	{"registry.cpu_share", "share"},
	{"metrics.cpu_share", "share"},
	{"testbed.cpu_share", "share"},
	{"other.cpu_share", "share"},
	{"testbed.new_s", "s"},
	{"testbed.register_s", "s"},
	{"testbed.predeploy_s", "s"},
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the result line with every metric of defs, each
// with its unit; a metric missing from values is an error, so a renamed
// or forgotten metric cannot silently drop out of the output.
func printResult(w io.Writer, correct bool, attempted, failed int64, defs []metricDef, values map[string]float64) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricOutput{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricOutput{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianOf is the median of f over rounds.
func medianOf(rounds []roundResult, f func(r *roundResult) float64) float64 {
	xs := make([]float64, len(rounds))
	for i := range rounds {
		xs[i] = f(&rounds[i])
	}
	return median(xs)
}

// refNominalS is the reference kernel's time on the host README.md
// records the baseline on; host times are reported at that speed.
const refNominalS = 0.020

// hostScale converts a round's host seconds to seconds at the nominal
// speed. The shared host's speed drifts by a quarter and more over
// minutes; the kernel timed around the round slows with it, so a round
// that ran on a slow host is scaled back by how slow the kernel was.
// The kernel depends on no repository code: a faster program shows as
// fully as before.
func hostScale(r *roundResult) float64 { return ratio(refNominalS, r.RefS) }

// opsPerSecond is the ops completed per second of measured phase, at
// nominal host speed, in the median round.
func opsPerSecond(rounds []roundResult) float64 {
	return medianOf(rounds, func(r *roundResult) float64 { return ratio(float64(r.Attempted), r.WallS*hostScale(r)) })
}

const mib = 1 << 20

// endToEndValues summarises the untraced rounds of a run, each metric
// as its median round: host speed on a shared machine also varies from
// second to second, and the median discards the rounds that caught a
// slow spell. The time metrics of the measured phase are at nominal host
// speed (hostScale). Set-up time is the median over the rounds and the
// set-up-only samples, unscaled: it is a fresh process's page faults and
// first allocations, which the kernel does not follow.
func endToEndValues(rounds, setups []roundResult) map[string]float64 {
	perOp := func(f func(r *roundResult) float64) func(r *roundResult) float64 {
		return func(r *roundResult) float64 { return ratio(f(r), float64(r.Attempted)) }
	}
	return map[string]float64{
		"setup_s":            medianOf(append(append([]roundResult(nil), setups...), rounds...), (*roundResult).setupS),
		"ops_per_s":          opsPerSecond(rounds),
		"cpu_us_per_op":      medianOf(rounds, perOp(func(r *roundResult) float64 { return r.CPUS * hostScale(r) * 1e6 })),
		"alloc_bytes_per_op": medianOf(rounds, perOp(func(r *roundResult) float64 { return r.AllocBytes })),
		"live_heap_mib":      medianOf(rounds, func(r *roundResult) float64 { return r.LiveHeapB / mib }),
		"peak_rss_mib":       medianOf(rounds, func(r *roundResult) float64 { return r.PeakRSSB / mib }),
	}
}

// perLayerValues derives the per-layer table from the traced rounds
// (median round for each metric); failed_share and the tracing
// overhead also use the untraced rounds of the same run, and the set-up
// spans all rounds and set-up samples.
func perLayerValues(untraced, traced, setups []roundResult) map[string]float64 {
	all := append(append([]roundResult(nil), untraced...), traced...)
	var attempted, failed float64
	for _, r := range all {
		attempted += float64(r.Attempted)
		failed += float64(r.Failed)
	}
	v := map[string]float64{
		"failed_share":           ratio(failed, attempted),
		"tracing_overhead_share": 1 - ratio(opsPerSecond(traced), opsPerSecond(untraced)),
	}
	c := func(name string) func(r *roundResult) float64 {
		return func(r *roundResult) float64 { return r.Counters[name] }
	}
	perOp := func(name string) func(r *roundResult) float64 {
		return func(r *roundResult) float64 { return ratio(r.Counters[name], float64(r.Attempted)) }
	}
	of := func(num, den string) func(r *roundResult) float64 {
		return func(r *roundResult) float64 { return ratio(r.Counters[num], r.Counters[den]) }
	}
	fns := map[string]func(r *roundResult) float64{
		"vclock.events_per_op":         perOp("vclock.events"),
		"vclock.goroutines_per_op":     perOp("vclock.goroutines"),
		"vclock.sleeps_per_op":         perOp("vclock.sleeps"),
		"runtime.mutex_wait_us_per_op": func(r *roundResult) float64 { return ratio(r.MutexWaitS*1e6, float64(r.Attempted)) },
		"runtime.sched_latency_p50_us": func(r *roundResult) float64 { return r.SchedP50S * 1e6 },
		"runtime.sched_latency_p99_us": func(r *roundResult) float64 { return r.SchedP99S * 1e6 },
		"runtime.gc_cycles":            func(r *roundResult) float64 { return r.GCCycles },
		"openflow.handle_packet_ns":    c("openflow.handle_packet_ns"),
		"openflow.punt_ratio":          of("openflow.punts", "openflow.classified"),
		"openflow.flow_table_peak":     c("openflow.flow_table_peak"),
		"openflow.microflow_hit_ratio": of("openflow.microflow_hits", "openflow.classified"),
		"core.packet_ins_per_op":       perOp("core.packet_ins"),
		"core.memory_hit_ratio":        of("core.memory_hits", "core.packet_ins"),
		"core.candidate_hit_ratio":     of("core.candidate_hits", "core.candidate_lookups"),
		"core.flows_installed_per_op":  perOp("core.flows_installed"),
		"core.flowmemory_entries":      c("core.flowmemory_entries"),
		"core.rehome_us":               c("core.rehome_us"),
		"core.deploys":                 c("core.deploys"),
		"core.deploy_failures":         c("core.deploy_failures"),
	}
	for _, l := range layerNames {
		fns[l+".cpu_share"] = func(r *roundResult) float64 { return r.LayerShares[l] }
	}
	for name, f := range fns {
		v[name] = medianOf(traced, f)
	}
	// The leak and audit counts come from the round that drained (the
	// first of the run); the largest over all rounds is what must be 0.
	for _, name := range []string{"netem.leaked_packets", "core.audit_diff"} {
		for _, r := range all {
			v[name] = math.Max(v[name], math.Abs(r.Counters[name]))
		}
	}
	withSetups := append(append([]roundResult(nil), setups...), all...)
	v["testbed.new_s"] = medianOf(withSetups, func(r *roundResult) float64 { return r.NewS })
	v["testbed.register_s"] = medianOf(withSetups, func(r *roundResult) float64 { return r.RegisterS })
	v["testbed.predeploy_s"] = medianOf(withSetups, func(r *roundResult) float64 { return r.PredeployS })
	return v
}
