#!/usr/bin/env bash
# Paired A/B comparison of chimerabench runs: a base revision against the
# working tree (or a second revision).
#
#   scripts/abcompare.sh BASE [workload...]      # default workload: rewrite_cold
#   PAIRS=10 RUN_SECONDS=10 SEED=1 scripts/abcompare.sh HEAD~1 rewrite_cold serve_mixed
#   HEAD_REV=abc123 scripts/abcompare.sh abc123~1 serve_mixed   # two revisions
#
# BASE is any git revision. Its committed tree is exported (git archive, no
# network) to .bench_build/abcompare/tree-<sha>/ and built there by its own
# chimerabench/run.sh. The head side is the working tree, uncommitted edits
# included, built by ./chimerabench/run.sh — or, with HEAD_REV set, that
# revision, exported the same way. Each of PAIRS pairs runs both sides
# back to back, and the side that goes first alternates from pair to pair,
# so slow drift of the host's speed lands on both sides equally.
#
# Per workload and per metric the benchmark prints (its metric lines and
# the gated metrics of its result line), the report gives each side's
# median and quartiles, the median change, and in how many pairs the head
# was better (higher is better for */_per_s metrics, lower for every other
# one; ties are counted apart). It also reports whether every run of both
# sides printed the same deterministic values, and how many runs failed a
# check. Raw outputs stay under .bench_build/abcompare/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: scripts/abcompare.sh BASE [workload...]" >&2
    exit 2
fi
base=$1
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(rewrite_cold)
pairs=${PAIRS:-10}
secs=${RUN_SECONDS:-10}
seed=${SEED:-1}

root=$(pwd)
out="$root/.bench_build/abcompare"

# export REV: the directory holding REV's committed tree, exported once.
export_tree() {
    local dir="$out/tree-$1"
    if [ ! -d "$dir" ]; then
        mkdir -p "$out"
        rm -rf "$dir.tmp"
        mkdir "$dir.tmp"
        git archive "$1" | tar -x -C "$dir.tmp"
        mv "$dir.tmp" "$dir"
    fi
    echo "$dir"
}

rev=$(git rev-parse --verify "$base^{commit}")
basedir=$(export_tree "$rev")
headdir=$root
headname="working tree"
if [ -n "${HEAD_REV:-}" ]; then
    headrev=$(git rev-parse --verify "$HEAD_REV^{commit}")
    headdir=$(export_tree "$headrev")
    headname=${headrev:0:12}
fi

# run SIDE WORKLOAD PAIR: one benchmark run, its output kept for the report.
run() {
    local side=$1 w=$2 i=$3 dir=$headdir
    [ "$side" = base ] && dir=$basedir
    local log="$out/runs/$w/$side-$i.txt"
    echo "   pair $i: $side" >&2
    (cd "$dir" && bash chimerabench/run.sh --workload "$w" --seed "$seed" \
        --seconds "$secs" --trace 0) >"$log" 2>"$log.err" || echo "run failed: $log" >&2
}

for w in "${workloads[@]}"; do
    rm -rf "$out/runs/$w"
    mkdir -p "$out/runs/$w"
    echo "== $w: $pairs pairs of ${secs}s runs, seed $seed, base ${rev:0:12} vs $headname" >&2
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run base "$w" "$i"
            run head "$w" "$i"
        else
            run head "$w" "$i"
            run base "$w" "$i"
        fi
    done

    echo "== $w (base ${rev:0:12} vs $headname, $pairs pairs, ${secs}s, seed $seed)"
    for ((i = 1; i <= pairs; i++)); do
        for side in base head; do
            f="$out/runs/$w/$side-$i.txt"
            # Metric lines first, then the gated metrics of the result
            # line that no metric line printed (serve_mixed latency_p50_ms).
            awk -v side="$side" -v pair="$i" '
                $1 == "metric"        { print "M", side, pair, $2, $3; seen[$2] = 1 }
                $1 == "deterministic" { print "D", side, pair, $2, $3 }
                $1 == "check" && $3 != "ok" { print "F", side, pair, $2 }
                /^\{.*"correct":true/ {
                    ok = 1; s = $0
                    while (match(s, /"[a-z0-9_]+":\{"value":[-0-9.eE+]+/)) {
                        kv = substr(s, RSTART + 1, RLENGTH - 1); s = substr(s, RSTART + RLENGTH)
                        split(kv, p, /":\{"value":/)
                        if (!(p[1] in seen)) print "M", side, pair, p[1], p[2]
                    }
                }
                END { if (!ok) print "F", side, pair, "no_correct_result" }
            ' "$f"
        done
    done | awk -v pairs="$pairs" '
        function sortn(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
        }
        # q: linear-interpolated quantile of the sorted a[1..n].
        function q(a, n, p,    h, lo) {
            if (n == 0) return 0
            h = (n - 1) * p + 1; lo = int(h)
            if (lo >= n) return a[n]
            return a[lo] + (h - lo) * (a[lo+1] - a[lo])
        }
        $1 == "M" { v[$4, $2, $3] = $5; if (!($4 in seen)) { seen[$4] = 1; names[++nm] = $4 } }
        $1 == "D" {
            if (!($4 in dref)) { dref[$4] = $5; dnames[++nd] = $4 }
            else if (dref[$4] != $5) dbad[$4] = dbad[$4] " " $2 "-" $3 "=" $5
        }
        $1 == "F" { fails++; failed = failed " " $2 "-" $3 ":" $4 }
        END {
            printf "%-24s %12s %12s %12s %12s %12s %12s %8s  %s\n",
                "metric", "base_q1", "base_med", "base_q3", "head_q1", "head_med", "head_q3", "change", "head better"
            for (m = 1; m <= nm; m++) {
                name = names[m]; nb = 0; nh = 0; wins = 0; ties = 0; np = 0
                split("", b); split("", h)
                higher = (name ~ /_per_s$/)
                for (i = 1; i <= pairs; i++) {
                    hb = ((name, "base", i) in v); hh = ((name, "head", i) in v)
                    if (hb) b[++nb] = v[name, "base", i] + 0
                    if (hh) h[++nh] = v[name, "head", i] + 0
                    if (hb && hh) {
                        np++; x = v[name, "base", i] + 0; y = v[name, "head", i] + 0
                        if (x == y) ties++
                        else if ((higher && y > x) || (!higher && y < x)) wins++
                    }
                }
                sortn(b, nb); sortn(h, nh)
                bm = q(b, nb, 0.5); hm = q(h, nh, 0.5)
                change = (bm != 0) ? sprintf("%+.1f%%", (hm - bm) / bm * 100) : "n/a"
                printf "%-24s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %8s  %d of %d%s\n",
                    name, q(b, nb, 0.25), bm, q(b, nb, 0.75), q(h, nh, 0.25), hm, q(h, nh, 0.75),
                    change, wins, np, (ties ? sprintf(" (%d ties)", ties) : "")
            }
            nbad = 0
            for (k = 1; k <= nd; k++) if (dnames[k] in dbad) {
                nbad++; printf "deterministic %s differs from %s:%s\n", dnames[k], dref[dnames[k]], dbad[dnames[k]]
            }
            printf "deterministic values: %d keys, %s\n", nd, (nbad ? "MISMATCH" : "identical in every run of both sides")
            printf "failed runs or checks: %d%s\n", fails + 0, failed
        }'
done
