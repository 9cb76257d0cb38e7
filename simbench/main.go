// Command simbench is the repository's end-to-end benchmark of the
// emulator's host cost: host time, CPU and memory per unit of simulated
// work, on three workloads that stress different layers (see
// workloads.go and README.md).
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash simbench/run.sh --workload load --seed 1 --seconds 20 --trace 0
//
// A run repeats rounds of the workload until their measured phases add
// up to --seconds, and times a fixed reference kernel between rounds to
// follow the shared host's speed (see refkernel.go). Each
// round is a child process (a finished virtual clock leaves its parked
// goroutines behind, so rounds must not share a heap): it builds a
// fresh testbed, runs the measured phase once, and reports its digest,
// checks and costs. With --trace 0 every round is untraced and the run
// prints the end-to-end metrics. With --trace 1 untraced and traced
// rounds alternate; the run checks that their digests agree and prints
// the per-layer metrics, the tracing overhead among them. The last line
// of output is one JSON object; the exit status is non-zero when an
// output check fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one run, children included.
const runBudget = 170 * time.Second

// roundProcs is the GOMAXPROCS of every round. At 2 the simulator's
// outputs are not reproducible: goroutines the virtual clock wakes at
// one instant race on shared state, so replay's time_total p99 changes
// in some rounds and mobility's flow counters in most, which would fail
// the digest check. At 1 they repeat. README.md records the defect and
// what the multi-P hand-offs cost.
const roundProcs = 1

// setupSamples is how many set-up-only child processes a run adds to
// its rounds' set-ups. Set-up takes a millisecond or two and a sample
// process about 5 ms, so a run affords enough samples that their median
// does not hang on a few page-fault storms; each sample is a fresh
// process, as set-up is for a user.
const setupSamples = 200

func main() {
	workload := flag.String("workload", "", "workload: load, replay or mobility")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measure for this many seconds (whole rounds)")
	traceMode := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	child := flag.String("child", "", "internal: run one round (plain, drain, traced or setup) and print its result as JSON")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "simbench: unknown workload %q (want load, replay or mobility)\n", *workload)
		os.Exit(2)
	}
	if *child != "" {
		if err := childRound(run, *seed, *child); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %s round: %v\n", *workload, err)
			os.Exit(1)
		}
		return
	}
	if err := parent(*workload, *seed, *seconds, *traceMode == 1); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
}

// childRound runs one round of mode plain, drain, traced or setup (see
// round) and prints its result.
func childRound(run func(*round) error, seed int64, mode string) error {
	if mode != "plain" && mode != "drain" && mode != "traced" && mode != "setup" {
		return fmt.Errorf("unknown round mode %q", mode)
	}
	r := newRound(seed, mode == "traced")
	r.setupOnly, r.drain = mode == "setup", mode == "drain"
	if err := run(r); err != nil {
		return err
	}
	r.res.PeakRSSB = peakRSS()
	return json.NewEncoder(os.Stdout).Encode(&r.res)
}

// errCheck marks a run whose output checks failed; its result line is
// printed with correct=false.
var errCheck = errors.New("output check failed")

func parent(workload string, seed int64, seconds int, traceMode bool) error {
	fmt.Println(hostContext())
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var setups []roundResult
	for i := 0; i < setupSamples; i++ {
		rr, err := runChild(ctx, workload, seed, "setup")
		if err != nil {
			return err
		}
		setups = append(setups, rr)
	}
	var untraced, traced []roundResult
	var measured float64
	rk := newRefKernel()
	ref := rk.time()
	for i := 0; ; i++ {
		tr := traceMode && i%2 == 1
		mode := "plain"
		if tr {
			mode = "traced"
		} else if i == 0 {
			mode = "drain"
		}
		rr, err := runChild(ctx, workload, seed, mode)
		if err != nil {
			return err
		}
		next := rk.time()
		rr.RefS, ref = (ref+next)/2, next
		fmt.Printf("round %d %s seed=%d traced=%v digest=%s setup=%.3fs wall=%.3fs cpu=%.3fs ref=%.2fms ops=%d failed=%d\n",
			i+1, workload, seed, tr, rr.Digest, rr.setupS(), rr.WallS, rr.CPUS, rr.RefS*1e3, rr.Attempted, rr.Failed)
		for _, p := range rr.Problems {
			fmt.Printf("check failed: %s\n", p)
		}
		if tr {
			traced = append(traced, rr)
		} else {
			untraced = append(untraced, rr)
		}
		measured += rr.WallS
		if measured >= float64(seconds) && (!traceMode || len(traced) > 0) {
			break
		}
	}

	all := append(append([]roundResult(nil), untraced...), traced...)
	correct := true
	var attempted, failed int64
	for _, r := range all {
		attempted += r.Attempted
		failed += r.Failed
		if len(r.Problems) > 0 {
			correct = false
		}
		if r.Digest != all[0].Digest {
			correct = false
			fmt.Printf("check failed: digest %s (traced=%v) differs from %s; the same seed must give the same outputs\n",
				r.Digest, r.Traced, all[0].Digest)
		}
	}
	fmt.Printf("digest %s seed=%d %s\n", workload, seed, all[0].Digest)

	defs, values := endToEnd, endToEndValues(untraced, setups)
	if traceMode {
		defs, values = perLayer, perLayerValues(untraced, traced, setups)
		printTable(values)
	}
	if err := printResult(os.Stdout, correct, attempted, failed, defs, values); err != nil {
		return err
	}
	if !correct {
		return errCheck
	}
	return nil
}

// runChild runs one round of the given mode in a child process of this
// binary.
func runChild(ctx context.Context, workload string, seed int64, mode string) (roundResult, error) {
	var rr roundResult
	exe, err := os.Executable()
	if err != nil {
		return rr, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", roundProcs))
	// A run that is killed takes its round with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rr, fmt.Errorf("%s round (seed %d, %s): %w", workload, seed, mode, err)
	}
	if err := json.Unmarshal(out.Bytes(), &rr); err != nil {
		return rr, fmt.Errorf("%s round: decoding result: %w", workload, err)
	}
	return rr, nil
}

// hostContext describes where the numbers were measured.
func hostContext() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host go=%s cpu=%q nproc=%d gomaxprocs=%d os=%s/%s",
		runtime.Version(), cpu, runtime.NumCPU(), roundProcs, runtime.GOOS, runtime.GOARCH)
}

// printTable prints the per-layer values, one per line, before the
// result line.
func printTable(values map[string]float64) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("layer %-32s %.6g\n", n, values[n])
	}
}
