GO ?= go

.PHONY: build test race vet check bench bench-scale bench-save bench-sim bench-sim-save bench-sim-guard bench-load bench-load-save bench-load-guard bench-handover-save golden-diff chaos-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the CI gate: everything must build, vet clean, and pass the
# race-enabled test suite.
check: vet build race

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-scale runs the wall-clock control-plane scale benchmarks: the
# parallel packet-in throughput path and FlowMemory under a large
# resident population.
bench-scale:
	$(GO) test -bench='PacketInThroughput|FlowMemoryScale' -benchtime=2s -benchmem -run=^$$ ./internal/core/

# bench-save archives a bench-scale run to the next free BENCH_<n>.json
# (parsed results plus benchstat-compatible raw output).
bench-save:
	$(GO) test -bench='PacketInThroughput|FlowMemoryScale' -benchtime=2s -benchmem -run=^$$ ./internal/core/ | $(GO) run ./cmd/benchsave

# bench-sim runs the discrete-event engine microbenchmarks: a full TCP
# request/response over the emulated network, the 8-client switch fan-in,
# the multi-hop 83 KiB bulk transfer, and the allocation-free
# steady-state packet hop.
SIM_BENCHES = BenchmarkRequestResponse|BenchmarkPacketSwitchingFanIn|BenchmarkBulkTransfer|BenchmarkPacketHop
bench-sim:
	$(GO) test -bench='$(SIM_BENCHES)' -benchtime=2s -benchmem -run=^$$ ./internal/netem/

# bench-sim-save archives a bench-sim run (BENCH_3.json is this repo's
# checked-in engine baseline).
bench-sim-save:
	$(GO) test -bench='$(SIM_BENCHES)' -benchtime=2s -benchmem -run=^$$ ./internal/netem/ | $(GO) run ./cmd/benchsave

# bench-sim-guard is the CI smoke gate: the steady-state packet hop must
# stay allocation-free, and the fan-in and bulk-transfer datapaths must
# hold their allocation ceilings (measured 85 and 11 allocs/op, gated
# with headroom for scheduling variance). allocs/op is deterministic, so
# the ceilings hold on shared runners. The (-[0-9]+)?$ tail keeps the
# gates matching on multi-core runners, where go test suffixes
# -GOMAXPROCS.
bench-sim-guard:
	$(GO) test -bench='BenchmarkPacketHop|BenchmarkPacketSwitchingFanIn|BenchmarkBulkTransfer$$' -benchtime=100x -benchmem -run=^$$ ./internal/netem/ | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkPacketHop(-[0-9]+)?$$=0' \
			-gate 'BenchmarkPacketSwitchingFanIn(-[0-9]+)?$$=96' \
			-gate 'BenchmarkBulkTransfer(-[0-9]+)?$$=16'

# bench-load runs the scale benchmarks: the streaming-telemetry record
# path, the O(1) Zipf alias draw, the timing wheel at one million
# pending timers (post/stop churn and firing drain), the windowed
# shard-barrier round trip, and the 250k-flow open-loop load engine end
# to end — sequential and sharded four ways.
bench-load:
	$(GO) test -bench='BenchmarkHistRecord' -benchtime=2s -benchmem -run=^$$ ./internal/metrics/
	$(GO) test -bench='BenchmarkZipfAlias' -benchtime=2s -benchmem -run=^$$ ./internal/testbed/
	$(GO) test -bench='BenchmarkMillionTimers' -benchtime=2s -benchmem -run=^$$ ./internal/vclock/
	$(GO) test -bench='BenchmarkShardBarrier' -benchtime=2s -benchmem -run=^$$ ./internal/vclock/
	$(GO) test -bench='BenchmarkOpenLoopLoad' -benchtime=1x -benchmem -run=^$$ .

# bench-load-save archives a bench-load run (BENCH_7.json is this repo's
# checked-in sharded-engine baseline, taken at GOMAXPROCS=4 — read it
# with the archived gomaxprocs/numcpu fields; BENCH_6.json was the
# pre-sharding streaming-telemetry record).
bench-load-save:
	( $(GO) test -bench='BenchmarkHistRecord' -benchtime=2s -benchmem -run=^$$ ./internal/metrics/ ; \
	  $(GO) test -bench='BenchmarkZipfAlias' -benchtime=2s -benchmem -run=^$$ ./internal/testbed/ ; \
	  $(GO) test -bench='BenchmarkMillionTimers' -benchtime=2s -benchmem -run=^$$ ./internal/vclock/ ; \
	  $(GO) test -bench='BenchmarkShardBarrier' -benchtime=2s -benchmem -run=^$$ ./internal/vclock/ ; \
	  $(GO) test -bench='BenchmarkOpenLoopLoad' -benchtime=1x -benchmem -run=^$$ . ) | \
		$(GO) run ./cmd/benchsave BENCH_7.json

# bench-load-guard gates the telemetry and timer hot paths on allocation
# counts: recording a latency sample into the streaming histogram and
# drawing a Zipf rank through the alias table must be allocation-free
# (measurement must never become the load engine's bottleneck again),
# posting and cancelling a timer under a 1M-timer population must stay
# allocation-free on the wheel, one windowed shard-barrier round trip
# (Send2 + merge + block/resume) must be allocation-free in steady
# state, and one full 250k-flow / 500k-arrival open-loop run must hold
# its measured ceiling sequential and sharded (9.21M and 9.24M allocs,
# gated with headroom — telemetry and the barrier contribute none of
# them), and one complete handover (link re-home, make-before-break
# re-steer, route convergence, and a verified session round) must stay
# under 48 allocs (measured 32). The (-\d+)?$ tail keeps the gates
# matching on multi-core
# runners, where go test suffixes -GOMAXPROCS.
bench-load-guard:
	$(GO) test -bench='BenchmarkHistRecord' -benchtime=1000000x -benchmem -run=^$$ ./internal/metrics/ | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkHistRecord(-[0-9]+)?$$=0'
	$(GO) test -bench='BenchmarkZipfAlias' -benchtime=1000000x -benchmem -run=^$$ ./internal/testbed/ | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkZipfAlias(-[0-9]+)?$$=0'
	$(GO) test -bench='BenchmarkMillionTimers/wheel' -benchtime=100000x -benchmem -run=^$$ ./internal/vclock/ | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkMillionTimers/wheel/post-stop(-[0-9]+)?$$=0' \
			-gate 'BenchmarkMillionTimers/wheel/drain(-[0-9]+)?$$=0'
	$(GO) test -bench='BenchmarkShardBarrier' -benchtime=100000x -benchmem -run=^$$ ./internal/vclock/ | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkShardBarrier(-[0-9]+)?$$=0'
	$(GO) test -bench='BenchmarkOpenLoopLoad' -benchtime=1x -benchmem -run=^$$ . | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkOpenLoopLoad(-[0-9]+)?$$=11000000' \
			-gate 'BenchmarkOpenLoopLoadSharded(-[0-9]+)?$$=11000000'
	$(GO) test -bench='BenchmarkHandover$$' -benchtime=200x -benchmem -run=^$$ . | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkHandover(-[0-9]+)?$$=48'

# bench-handover-save archives the handover benchmark (BENCH_8.json is
# this repo's checked-in mobility baseline: 42 allocs per complete
# handover, 8 ms simulated control-plane p50).
bench-handover-save:
	$(GO) test -bench='BenchmarkHandover$$' -benchtime=200x -benchmem -run=^$$ . | \
		$(GO) run ./cmd/benchsave BENCH_8.json

# golden-diff is the determinism gate, three byte-for-byte comparisons
# on one build:
#   - golden file: the canonical experiment suite (-exp all -n 5
#     -seed 1) must match the committed golden file. Any intentional
#     output change must regenerate testdata/golden/exp_all_n5_seed1.txt
#     in the same commit and justify itself in review.
#   - mobility: the mobility experiment's output, session checksum
#     included, must not depend on the worker count, and every session
#     must survive every handover (the run fails its final line
#     otherwise).
#   - shards: the load experiment's stdout, fingerprint row included,
#     must be the same sequential or service-partitioned across 2, 4,
#     or 8 clocks. Only stdout is compared: wall-clock, peak heap, and
#     the shard count itself go to stderr by design.
golden-diff:
	$(GO) build -o /tmp/edgesim-golden ./cmd/edgesim
	/tmp/edgesim-golden -exp all -n 5 -seed 1 > /tmp/golden.txt
	diff testdata/golden/exp_all_n5_seed1.txt /tmp/golden.txt
	/tmp/edgesim-golden -exp mobility -seed 1 -parallel 1 > /tmp/mob-1.txt
	/tmp/edgesim-golden -exp mobility -seed 1 -parallel 4 > /tmp/mob-4.txt
	diff /tmp/mob-1.txt /tmp/mob-4.txt
	/tmp/edgesim-golden -exp load -flows 50000 -shards 1 > /tmp/shdiff-1.txt
	/tmp/edgesim-golden -exp load -flows 50000 -shards 2 > /tmp/shdiff-2.txt
	/tmp/edgesim-golden -exp load -flows 50000 -shards 4 > /tmp/shdiff-4.txt
	/tmp/edgesim-golden -exp load -flows 50000 -shards 8 > /tmp/shdiff-8.txt
	diff /tmp/shdiff-1.txt /tmp/shdiff-2.txt
	diff /tmp/shdiff-1.txt /tmp/shdiff-4.txt
	diff /tmp/shdiff-1.txt /tmp/shdiff-8.txt
	@echo "golden-diff: golden file, mobility across -parallel, and load across -shards all byte-identical"

# chaos-check is the chaos-hardening gate: the full-trace chaos replay
# must hold its invariants (exit 0) under the race detector's build,
# and the seeded-random convergence property plus the multi-seed
# invariant suite must pass with -race.
chaos-check:
	$(GO) build -race -o /tmp/edgesim-chaos ./cmd/edgesim
	/tmp/edgesim-chaos -exp chaos -seed 1
	$(GO) test -race -run 'TestChaos' ./internal/testbed/
	@echo "chaos-check: invariants held"
