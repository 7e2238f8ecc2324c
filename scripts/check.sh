#!/bin/sh
# Full local check: build, vet, the test suite with the race detector, and
# a short audited fuzz smoke on each fuzz target. The optperf fuzz target
# solves through SolveAudited in strict mode, so every fuzz input also
# verifies the paper's optimality invariants (audit harness, DESIGN.md).
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

# perfbench is its own module (replace cannikin => ../), so ./... above
# skips it; vet and self-test it here so a change to any symbol it imports
# breaks CI rather than the benchmark run.
echo "== perfbench module: vet + self-tests =="
(cd perfbench && go vet . && go test .)

# TestTCPBatchAutoNotSlowerThanPlain compares wall-clock times, so the
# lanes that run packages side by side skip it and it runs alone below.
TIMING_TEST='^TestTCPBatchAutoNotSlowerThanPlain$'

echo "== go test -race =="
go test -race -skip "$TIMING_TEST" ./...

# The live execution engine is the most concurrency-dense code in the repo
# (two goroutines per worker, or one in merged mode, channel-linked ring,
# shared comm buffers), so run its package and the collective under the
# race detector explicitly and with a higher count even though ./... above
# already covers them once.
echo "== go test -race -count=2 (runtime + allreduce) =="
go test -race -count=2 -skip "$TIMING_TEST" ./internal/runtime ./internal/allreduce

# The tensor kernel worker pool shards matmuls across goroutines and is
# resized at runtime (SetParallelism); run its parallel property tests —
# parallel == serial bitwise, concurrent callers, pool resizing — under the
# race detector at several GOMAXPROCS values.
echo "== go test -race -count=2 -cpu 1,2,4 (tensor kernel pool) =="
go test -race -count=2 -cpu 1,2,4 -run 'Parallel|Pool' ./internal/tensor

# The fault-tolerance layer races workers against injected stalls, drops,
# and kills and drives the retry/eviction state machine from timeouts; run
# the injector package and the fault-path tests (guarded ring, eviction,
# differential recovery) under the race detector at several GOMAXPROCS
# values — determinism claims must hold at every parallelism level.
echo "== go test -race -count=2 -cpu 1,2,4 (fault injection + fault paths) =="
go test -race -count=2 -cpu 1,2,4 ./internal/faultinject
go test -race -count=2 -cpu 1,2,4 -run 'Fault|Evict|Recovery|Guarded' ./internal/runtime ./internal/allreduce

# The TCP ring transport runs a writer and a reader goroutine per process
# against real sockets, and the multi-process worker runtime layers the
# deterministic training loop on top; run both transports' conformance
# suite and the worker bitwise-parity tests under the race detector at
# several GOMAXPROCS values. The per-epoch evaluation forwards chunks on
# every replica concurrently, so its differential tests (chunked and
# sharded == one full Forward, on every executor) run here too.
echo "== go test -race -cpu 1,2,4 (tcp transport + worker runtime + sharded eval) =="
go test -race -count=1 -cpu 1,2,4 -run 'Transport|TCP|Worker|Eval' -skip "$TIMING_TEST" ./internal/allreduce ./internal/runtime

# The BatchAuto-vs-plain wall-clock gate, alone: no other test package
# competes for the cores while it times the two rings.
echo "== go test -race -cpu 1,2,4 (tcp BatchAuto timing gate, alone) =="
go test -race -count=1 -cpu 1,2,4 -run "$TIMING_TEST" ./internal/allreduce

echo "== multi-process smoke: coordinator + worker processes over loopback tcp =="
BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/cannikin" ./cmd/cannikin
go build -o "$BIN/cannikin-worker" ./cmd/cannikin-worker
# 3 worker processes, adaptive batching; the coordinator itself verifies
# every rank's weight hash against the in-process channel-transport
# reference, so a plain exit-0 here is the bitwise cross-check.
"$BIN/cannikin" -mlp -transport tcp -mlp-batches 8,4,2 -epochs 1 \
	-batch-delay auto -worker-bin "$BIN/cannikin-worker" >/dev/null
# 2 worker processes, guarded hops, no batching.
"$BIN/cannikin" -mlp -transport tcp -mlp-batches 6,6 -epochs 1 \
	-guard -worker-bin "$BIN/cannikin-worker" >/dev/null

# Elastic lane: the hot-join/autoscaler differential suite asserts bitwise
# trajectory equality across membership changes (join ≡ fresh run from the
# join checkpoint; join-then-evict returns to the survivor trajectory), so
# it must hold under the race detector at every parallelism level.
echo "== elastic lane: join/evict differential suite -race -cpu 1,2,4 =="
go test -race -count=1 -cpu 1,2,4 -run 'Elastic|Join|Autoscal' ./internal/runtime .
go test -race -count=1 -run 'Resize|AutoscaleJobs' ./internal/jobs

echo "== elastic smoke: tcp hot-join, a 4th worker process joins mid-run =="
# Generation 1 runs 3 worker processes; at epoch 1 the coordinator hands
# the weights+velocity checkpoint to a 4-process generation. The
# coordinator verifies the final hash on every rank and against the
# in-process hot-join reference, so exit 0 is the bitwise cross-check.
"$BIN/cannikin" -mlp -transport tcp -mlp-batches 6,4,2 -epochs 2 \
	-join 1:4 -worker-bin "$BIN/cannikin-worker" >/dev/null

echo "== live-backend smoke: short epochs through the CLI =="
go run ./cmd/cannikin -mlp -backend live -epochs 2 -mlp-batches 16,8,4 -bucket-bytes 2048 -kernel-shards 2 >/dev/null

# The collective-engine benchmarks feed scripts/bench.sh's JSON parser and
# the benchcheck gates; a renamed sub-benchmark or a panicking algorithm
# path should fail here, not silently produce a malformed BENCH file.
echo "== allreduce bench smoke: every algorithm x worker x dim runs once =="
go test -run '^$' -bench 'BenchmarkAllReduce$' -benchtime 1x . >/dev/null

# Profiling must stay wired up: the live-vs-sequential bench is the tool
# used to chase scheduling regressions, so a broken -cpuprofile path (or a
# bench rename) should fail CI, not be discovered mid-investigation.
echo "== pprof smoke: cpu profile of the live-vs-sequential bench parses =="
go test -run '^$' -bench 'BenchmarkTrainMLPLiveVsSequential/w4/live' -benchtime 1x \
	-cpuprofile "$BIN/cpu.pprof" -o "$BIN/bench.test" . >/dev/null
go tool pprof -top "$BIN/bench.test" "$BIN/cpu.pprof" | head -n 12
go tool pprof -top "$BIN/bench.test" "$BIN/cpu.pprof" | grep -q 'flat' \
	|| { echo "pprof output missing profile table" >&2; exit 1; }

echo "== fault-tolerance smoke: injected kill evicts and the run completes =="
go run ./cmd/cannikin -mlp -backend live -epochs 2 -mlp-batches 8,8,8 -bucket-bytes 1024 -fault kill:1@6 >/dev/null

echo "== server lane: multi-tenant scheduler + HTTP service under -race =="
go test -race -count=1 ./internal/jobs ./internal/server

echo "== server smoke: submit/stream/cancel over localhost, then drain =="
go build -o "$BIN/cannikin-serve" ./cmd/cannikin-serve
go build -o "$BIN/cannikin-loadtest" ./cmd/cannikin-loadtest
"$BIN/cannikin-serve" -addr 127.0.0.1:0 -devices 6 > "$BIN/serve.log" 2>&1 &
SRV_PID=$!
i=0
SRV_ADDR=""
while [ "$i" -lt 100 ]; do
	SRV_ADDR=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$BIN/serve.log")
	[ -n "$SRV_ADDR" ] && break
	i=$((i+1)); sleep 0.1
done
[ -n "$SRV_ADDR" ] || { echo "cannikin-serve never listened" >&2; cat "$BIN/serve.log" >&2; exit 1; }
# Submit 3 concurrent jobs, stream one's epochs to completion, cancel one.
"$BIN/cannikin-loadtest" -url "http://$SRV_ADDR" -jobs 3
kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo "cannikin-serve exited non-zero" >&2; cat "$BIN/serve.log" >&2; exit 1; }
grep -q "drained cleanly" "$BIN/serve.log" \
	|| { echo "cannikin-serve did not drain cleanly" >&2; cat "$BIN/serve.log" >&2; exit 1; }

echo "== load-test smoke: 120 concurrent jobs, goodput vs equal-split =="
"$BIN/cannikin-loadtest" -jobs 120 -devices 12 -timeout 2m

echo "== audited fuzz smoke: optperf FuzzSolve =="
go test -run='^$' -fuzz=FuzzSolve -fuzztime=10s ./internal/optperf

echo "== audited fuzz smoke: gns FuzzEstimators =="
go test -run='^$' -fuzz=FuzzEstimators -fuzztime=10s ./internal/gns

echo "== fault fuzz smoke: runtime FuzzRingFaults =="
go test -run='^$' -fuzz=FuzzRingFaults -fuzztime=10s ./internal/runtime

echo "== elastic fuzz smoke: runtime FuzzElasticMembership =="
go test -run='^$' -fuzz=FuzzElasticMembership -fuzztime=10s ./internal/runtime

echo "OK"
