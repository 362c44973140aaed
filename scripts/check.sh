#!/bin/sh
# Pre-PR gate: formatting, vet, build (this module and the chimerabench
# benchmark module), the full test suite under the race detector, the
# warm-loop alloc, cold-rewrite alloc and nil-hook instrumentation overhead
# gates, the coverage-guided campaign smoke, and short native-fuzz smokes
# over the differential oracles and the decoders of untrusted bytes.
# Run from anywhere; it anchors itself at the repo root.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l . 2>/dev/null)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== benchmark module (chimerabench is a separate module; vet and compile it against this tree)"
(cd chimerabench && go vet ./... && go build -o /dev/null .)
echo "== metrics lint (chimera_[a-z_]+ naming + help text)"
go test -run 'TestMetricsLint|TestMetricNameValidation' -count=1 ./internal/service ./internal/telemetry
echo "== go test -race ./..."
go test -race ./...
echo "== chaos soak (1000 requests, fixed seed, -race; includes the 3-node cluster soak)"
CHIMERA_CHAOS_SOAK=1 go test -race -run 'TestChaosSoak' -count=1 -timeout 300s ./internal/service
echo "== cluster smoke (3 chimera-served processes, kill the shard owner, degraded-but-correct)"
go run ./cmd/chimera-smoke
echo "== resolver smoke (static recovery exact pins + >=5x runtime-rewrite fault reduction)"
go test -run 'TestResolverFaultReduction|TestResolverAvoidsRuntimeRewrites|TestDispatchFamilyRecovery' \
    -count=1 ./internal/bench ./internal/kernel ./internal/resolve
echo "== robustness matrix smoke (adversarial corpus x every rewriter config, baseline gate)"
go run ./cmd/chimera-eval -baseline internal/evalmatrix/testdata/matrix_baseline.json >/dev/null
echo "== bench smoke (1 iteration)"
go test -run=- -bench=. -benchtime=1x ./... >/dev/null
echo "== alloc gate (warm CPURun* hot loops and the warm fuzz exec cycle must not allocate)"
ALLOC_RAW="$(mktemp)"
go test -run=- -bench='BenchmarkCPURun' -benchtime=1x -benchmem ./internal/emu/ | tee "$ALLOC_RAW"
go test -run=- -bench='BenchmarkFuzzExec' -benchtime=1x -benchmem ./internal/fuzzsvc/ | tee -a "$ALLOC_RAW"
awk '/^Benchmark(CPURun|FuzzExec)/ {
    for (i = 2; i < NF; i++)
        if ($(i+1) == "allocs/op" && $i + 0 > 0) {
            printf "alloc gate: %s reports %s allocs/op, want 0\n", $1, $i > "/dev/stderr"
            bad = 1
        }
} END { exit bad }' "$ALLOC_RAW"
rm -f "$ALLOC_RAW"
# Cold rewrites (resolve, disassemble, match, place, tables, serialize) run
# over one dense decoded program and allocate mostly per patch site, not per
# instruction. The ceiling is 3000 allocs/op for every method x resolver
# row; the largest row measured 2532 (about 18% headroom), against 43948
# for the same row under the map-per-address disassembly it replaced.
echo "== rewrite pipeline alloc gate (every method x resolver off/on, allocs/op <= 3000)"
PIPE_RAW="$(mktemp)"
go test -run=- -bench='BenchmarkRewritePipeline' -benchtime=5x -benchmem ./internal/rewriters/ | tee "$PIPE_RAW"
awk -v ceiling=3000 '/^BenchmarkRewritePipeline\// {
    rows++
    for (i = 2; i < NF; i++)
        if ($(i+1) == "allocs/op" && $i + 0 > ceiling) {
            printf "pipeline alloc gate: %s reports %s allocs/op, ceiling %d\n", $1, $i, ceiling > "/dev/stderr"
            bad = 1
        }
} END {
    if (rows != 16) { printf "pipeline alloc gate: %d rows, want 16\n", rows > "/dev/stderr"; exit 1 }
    exit bad
}' "$PIPE_RAW"
rm -f "$PIPE_RAW"
# The nil-hook gate takes the min of several short runs (noise floors, not
# means) and bounds attached-but-idle instrumentation at 2% of the bare hot
# loop — the fuzzing service's idle cost when no observers are installed.
echo "== instrument nil-hook overhead gate (nilhooks within 2% of off, min of 5 runs)"
OVH_RAW="$(mktemp)"
go test -run=- -bench='BenchmarkCPURunInstrument/(off|nilhooks)' -benchtime=50x -count=5 \
    ./internal/emu/ | tee "$OVH_RAW"
awk '
/^BenchmarkCPURunInstrument\/off/      { for (i = 2; i < NF; i++) if ($(i+1) == "ns/inst" && (off == "" || $i + 0 < off)) off = $i + 0 }
/^BenchmarkCPURunInstrument\/nilhooks/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/inst" && (nil == "" || $i + 0 < nil)) nil = $i + 0 }
END {
    if (off == "" || nil == "") { print "overhead gate: missing ns/inst samples" > "/dev/stderr"; exit 1 }
    printf "nil-hook overhead: off %.3f ns/inst, nilhooks %.3f ns/inst (%+.2f%%)\n", off, nil, (nil - off) / off * 100
    if (nil > off * 1.02) { print "overhead gate: nil-hook ns/inst exceeds off by more than 2%" > "/dev/stderr"; exit 1 }
}' "$OVH_RAW"
rm -f "$OVH_RAW"
echo "== fuzz campaign smoke (coverage-guided engine finds and minimizes the seeded bug)"
go run ./cmd/chimera-fuzz -campaign demo -campaign-execs 30000 -campaign-input 64 \
    -campaign-budget 200000 -campaign-expect-crash -campaign-o /dev/null
echo "== fuzz smoke (10s per target)"
go test -run=- -fuzz=FuzzDifferential -fuzztime=10s ./internal/fuzz >/dev/null
go test -run=- -fuzz=FuzzRewrite -fuzztime=10s ./internal/fuzz >/dev/null
go test -run=- -fuzz=FuzzObjLoad -fuzztime=10s ./internal/obj >/dev/null
go test -run=- -fuzz=FuzzDecodeEntry -fuzztime=10s ./internal/store >/dev/null
go test -run=- -fuzz=FuzzUnmarshalTables -fuzztime=10s ./internal/chbp >/dev/null
go test -run=- -fuzz=FuzzDisassemble -fuzztime=10s ./internal/dis >/dev/null
echo "== ok"
