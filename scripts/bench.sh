#!/bin/sh
# Emulator benchmark harness: runs the BenchmarkCPURun* emulated-MIPS
# benchmarks, the BenchmarkService*/BenchmarkRewriteBatch service suite, the
# coverage-guided campaign throughput benchmark (whole fuzzing execs/s), the
# store benchmarks (memory-tier verified hits and cold Puts at 1 and 2
# CPUs, a decoded entry's Put, disk-store hit latency), and the BenchmarkResolve rewriter-config rows (runtime-rewrite
# fault rate and per-task p50/p99 with the indirect-target resolver off vs
# on), and distills the results into BENCH_emu.json (per benchmark: ns/op,
# emulated MIPS, ns per retired instruction, allocs/op, MB/s, batch
# items/s, faults/avoided/crashed per op, p50/p99 kcycles), plus a
# "matrix" block distilled from chimera-eval: per rewriter config, the
# pass/degraded/reject split and mean size/cycle overheads over the
# adversarial corpus. Run from anywhere; writes to the repo root.
#
#   scripts/bench.sh                # default -benchtime
#   BENCHTIME=5s scripts/bench.sh   # longer runs for stable numbers
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench CPURun (internal/emu, -benchtime $BENCHTIME)"
go test -run=- -bench='BenchmarkCPURun' -benchmem -benchtime "$BENCHTIME" \
    ./internal/emu/ | tee "$RAW"

# One campaign iteration is 2000 whole guest executions — one iteration is
# plenty of signal for the execs/s throughput number.
echo "== go test -bench CampaignExecs (internal/fuzzsvc, campaign throughput)"
go test -run=- -bench='BenchmarkCampaignExecs' -benchtime 1x \
    ./internal/fuzzsvc/ | tee -a "$RAW"

echo "== go test -bench Service|RewriteBatch (internal/service)"
go test -run=- -bench='BenchmarkService|BenchmarkRewriteBatch' -benchmem -benchtime 1x \
    ./internal/service/ | tee -a "$RAW"

# The memory-tier rows run at -cpu 1,2: both hashes (hit verification and
# the Put-side checksum) run outside the store mutex, so throughput should
# scale with CPUs. Their rows are named <benchmark>/cpu=<n>.
echo "== go test -bench store paths (internal/store, -benchtime $BENCHTIME)"
go test -run=- -bench='BenchmarkMemory(Hit|Put)Parallel' -benchmem \
    -cpu 1,2 -benchtime "$BENCHTIME" ./internal/store/ | tee -a "$RAW"
go test -run=- -bench='BenchmarkDecodePut|BenchmarkDiskStoreHit' -benchmem \
    -benchtime "$BENCHTIME" ./internal/store/ | tee -a "$RAW"

# The resolver rows are simulated-cycle metrics (fault rate, per-task
# p50/p99), deterministic per pass — one iteration is the measurement.
echo "== go test -bench Resolve (internal/bench, fault-rate/p99 per rewriter config)"
go test -run=- -bench='BenchmarkResolve' -benchtime 1x \
    ./internal/bench/ | tee -a "$RAW"

# Distill `go test -bench` lines into JSON. Lines look like:
#   BenchmarkCPURunFib/blocks-8  865  3062081 ns/op  148.6 Minst/s  6.730 ns/inst  7 B/op  0 allocs/op
# The BenchmarkCPURunProfiler off/on pair also yields profiler_overhead_pct:
# the guest profiler's ns/inst cost relative to the profiler-off hot loop
# (the acceptance bound is < 2% for the off case vs the pre-profiler
# baseline; the on case documents the cost of enabling it).
awk '
BEGIN { print "{"; print "  \"benchmarks\": ["; n = 0 }
/^Benchmark/ {
    name = $1; procs = 1
    if (match(name, /-[0-9]+$/)) { procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
    if (name ~ /^BenchmarkMemory(Hit|Put)Parallel$/) name = name "/cpu=" procs
    nsop = ""; mips = ""; nsinst = ""; allocs = ""; mbs = ""; items = ""
    faults = ""; avoided = ""; crashed = ""; p50 = ""; p99 = ""; execs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")       nsop = $i
        if ($(i+1) == "Minst/s")     mips = $i
        if ($(i+1) == "ns/inst")     nsinst = $i
        if ($(i+1) == "allocs/op")   allocs = $i
        if ($(i+1) == "MB/s")        mbs = $i
        if ($(i+1) == "items/s")     items = $i
        if ($(i+1) == "faults/op")   faults = $i
        if ($(i+1) == "avoided/op")  avoided = $i
        if ($(i+1) == "crashed/op")  crashed = $i
        if ($(i+1) == "p50-kcycles") p50 = $i
        if ($(i+1) == "p99-kcycles") p99 = $i
        if ($(i+1) == "execs/s")     execs = $i
    }
    if (nsop == "") next
    if (name == "BenchmarkCPURunProfiler/off" && nsinst != "") prof_off = nsinst
    if (name == "BenchmarkCPURunProfiler/on"  && nsinst != "") prof_on = nsinst
    if (name == "BenchmarkCPURunInstrument/off"      && nsinst != "") ins_off = nsinst
    if (name == "BenchmarkCPURunInstrument/nilhooks" && nsinst != "") ins_nil = nsinst
    if (name == "BenchmarkCPURunInstrument/coverage" && nsinst != "") ins_cov = nsinst
    if (name == "BenchmarkCPURunInstrument/cmplog"   && nsinst != "") ins_cmp = nsinst
    if (name == "BenchmarkCampaignExecs" && execs != "") campaign_execs = execs
    if (name == "BenchmarkResolve/chbp-off" && faults != "") { roff_f = faults; roff_p99 = p99 }
    if (name == "BenchmarkResolve/chbp-on"  && faults != "") { ron_f = faults; ron_p99 = p99 }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, nsop
    if (mips != "")    printf ", \"emulated_mips\": %s", mips
    if (nsinst != "")  printf ", \"ns_per_inst\": %s", nsinst
    if (allocs != "")  printf ", \"allocs_per_op\": %s", allocs
    if (mbs != "")     printf ", \"mb_per_s\": %s", mbs
    if (items != "")   printf ", \"items_per_s\": %s", items
    if (faults != "")  printf ", \"faults_per_op\": %s", faults
    if (avoided != "") printf ", \"avoided_per_op\": %s", avoided
    if (crashed != "") printf ", \"crashed_per_op\": %s", crashed
    if (p50 != "")     printf ", \"p50_kcycles\": %s", p50
    if (p99 != "")     printf ", \"p99_kcycles\": %s", p99
    if (execs != "")   printf ", \"execs_per_s\": %s", execs
    printf "}"
}
END {
    print "\n  ],"
    if (prof_off + 0 > 0 && prof_on != "")
        printf "  \"profiler_overhead_pct\": %.2f,\n", (prof_on - prof_off) / prof_off * 100
    if (ins_off + 0 > 0 && ins_cov != "" && ins_cmp != "") {
        printf "  \"instrument\": {\"ns_per_inst_off\": %s, \"ns_per_inst_nilhooks\": %s", ins_off, ins_nil
        printf ", \"ns_per_inst_coverage\": %s, \"ns_per_inst_cmplog\": %s", ins_cov, ins_cmp
        printf ", \"nilhooks_overhead_pct\": %.2f", (ins_nil - ins_off) / ins_off * 100
        printf ", \"coverage_overhead_pct\": %.2f", (ins_cov - ins_off) / ins_off * 100
        printf ", \"cmplog_overhead_pct\": %.2f", (ins_cmp - ins_off) / ins_off * 100
        if (campaign_execs != "") printf ", \"campaign_execs_per_s\": %s", campaign_execs
        print "},"
    }
    if (roff_f != "" && ron_f != "") {
        printf "  \"resolver\": {\"chbp_faults_per_op_off\": %s, \"chbp_faults_per_op_on\": %s", roff_f, ron_f
        if (ron_f + 0 > 0) printf ", \"fault_reduction_x\": %.1f", roff_f / ron_f
        else               printf ", \"fault_reduction_x\": \"inf\""
        printf ", \"chbp_p99_kcycles_off\": %s, \"chbp_p99_kcycles_on\": %s", roff_p99, ron_p99
        if (roff_p99 + 0 > 0)
            printf ", \"p99_reduction_pct\": %.2f", (roff_p99 - ron_p99) / roff_p99 * 100
        print "},"
    }
    print "  \"note\": \"profiler_overhead_pct = CPURunProfiler on-vs-off ns/inst delta; resolver = BenchmarkResolve chbp off-vs-on fault-rate and p99 deltas; instrument = CPURunInstrument hook-mode ns/inst deltas plus CampaignExecs fuzzing throughput\""
    print "}"
}
' "$RAW" > BENCH_emu.json

# The robustness-matrix distillation: per rewriter config, the pass /
# degraded / reject split over the adversarial corpus plus mean size and
# simulated-cycle overheads. Deterministic (simulated cycles, wire bytes),
# so the block is comparable across runs and machines.
echo "== chimera-eval -summary (robustness matrix per-config distillation)"
MATRIX_SUMMARY="$(mktemp)"
go run ./cmd/chimera-eval -summary > "$MATRIX_SUMMARY"
{
    sed '$ d' BENCH_emu.json
    printf '  ,"matrix": '
    sed 's/^/  /;1s/^  //' "$MATRIX_SUMMARY"
    echo "}"
} > BENCH_emu.json.tmp
mv BENCH_emu.json.tmp BENCH_emu.json
rm -f "$MATRIX_SUMMARY"

echo "== wrote BENCH_emu.json"
cat BENCH_emu.json
