#!/usr/bin/env bash
# Deterministic-performance baseline gate.
#
# The simulator's *modelled* outputs — simulated cycles and workload
# checksums per (benchmark, mode) — are bit-deterministic for a fixed seed
# and scale, so they can be committed and diffed like any other artifact.
# This script records them under baselines/ and fails CI-style when a code
# change regresses modelled cycles by more than 10% or perturbs a workload
# checksum at all.
#
# The concurrent bench's modelled persistence counts (flushes, fences and
# elided flushes per op) are diffed exactly on the rows whose counts do not
# depend on thread timing: every single-thread row and every ConcList row
# (`exact_counts` below). On the other multi-thread rows a race can move a
# count by a few lines, so there only ops and checksums are compared.
#
# Host-time fields (wall_ms, median_ns, p95_ns, ...) are machine noise and
# are deliberately NEVER diffed. Each bench also checks its own numbers and
# exits nonzero on a failed gate (host-time ratios included), and this
# script stops on that exit, so it inherits every gate of the six benches.
# What stays here is the cross-run diff, which no single run can compute.
#
# Usage:
#   scripts/bench_baseline.sh check    compare a fresh run against baselines/
#                                      (default when no argument is given)
#   scripts/bench_baseline.sh record   re-run and overwrite baselines/
#
# Both modes run the benches below at small scale with UTPR_JOBS=1 so the
# parallel scheduler cannot reorder anything.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-check}"
# Absolute: cargo bench runs with the package dir as cwd, so a relative
# UTPR_BENCH_OUT would land the reports inside crates/bench/.
base_dir="$(pwd)/baselines"
tolerance=0.10
# Concurrent rows (by key) whose flush/fence/elided counts must match
# exactly.
exact_counts='/t1$|^clist/'
benches=(fig11 hotpath interp concurrent endurance server)

run_benches() {
    local name
    for name in "${benches[@]}"; do
        UTPR_BENCH_SCALE=small UTPR_JOBS=1 UTPR_BENCH_OUT="$1" \
            cargo bench -q -p utpr-bench --bench "$name" --offline > /dev/null
    done
}

# Emits "key cycles checksum counts" lines from a BENCH_*.json report: one line per
# run record that carries modelled cycles. fig11 records are keyed
# benchmark/mode; hotpath YCSB records are keyed by their run name. interp
# records carry no cycles; their deterministic guest-instruction count
# stands in (same seed + scale => bit-identical count), and concurrent
# grid cells use their deterministic executed-op count the same way (the
# audit checksum is the real payload there). Records with none of these
# fields (host-timing summaries, the report header) are skipped. `counts`
# is "flushes,fences,elided" per op on concurrent records and "-" on the
# rest. Checksums and counts are kept as strings — checksums are full u64s
# and would lose precision as awk doubles, and counts compare exactly.
extract() {
    awk '
        # The number in a `"field":value` pair, without the closing
        # brackets or newline that end a report'"'"'s last record.
        function num(pair) { sub(/.*:/, "", pair); sub(/[^0-9.eE+-].*/, "", pair); return pair }
        BEGIN { RS = "{"; FS = "," }
        {
            key = ""; name = ""; cyc = ""; gi = ""; sum = ""; fl = ""; fe = ""; el = ""
            for (i = 1; i <= NF; i++) {
                if ($i ~ /^"benchmark":/) {
                    v = $i; gsub(/.*:"|"/, "", v); key = v
                } else if ($i ~ /^"mode":/) {
                    v = $i; gsub(/.*:"|"/, "", v); key = key "/" v
                } else if ($i ~ /^"name":/) {
                    v = $i; gsub(/.*:"|"/, "", v); name = v
                } else if ($i ~ /^"cycles":/) {
                    v = $i; sub(/.*:/, "", v); cyc = v
                } else if ($i ~ /^"guest_insts":/) {
                    v = $i; sub(/.*:/, "", v); gi = v
                } else if ($i ~ /^"ops":/) {
                    v = $i; sub(/.*:/, "", v); if (gi == "") gi = v
                } else if ($i ~ /^"checksum":/) {
                    sum = num($i)
                } else if ($i ~ /^"flushes_per_op":/) {
                    fl = num($i)
                } else if ($i ~ /^"fences_per_op":/) {
                    fe = num($i)
                } else if ($i ~ /^"elided_per_op":/) {
                    el = num($i)
                }
            }
            if (key == "") key = name
            if (cyc == "") cyc = gi
            counts = (fl == "") ? "-" : fl "," fe "," el
            if (key != "" && cyc != "") print key, cyc, sum, counts
        }' "$1"
}

compare() {
    # $1 = baseline extract, $2 = current extract, $3 = report label
    awk -v tol="$tolerance" -v label="$3" -v exact="$exact_counts" '
        NR == FNR { cyc[$1] = $2; sum[$1] = $3; counts[$1] = $4; next }
        {
            if (!($1 in cyc)) {
                printf "%s: %s has no committed baseline (run `scripts/bench_baseline.sh record`)\n", label, $1
                bad = 1; next
            }
            seen[$1] = 1
            if (sum[$1] != $3) {
                printf "%s: %s checksum drifted %s -> %s (workload results changed!)\n", label, $1, sum[$1], $3
                bad = 1
            }
            if (label == "concurrent" && $1 ~ exact && counts[$1] != $4) {
                printf "%s: %s flush/fence/elided per op drifted %s -> %s\n", label, $1, counts[$1], $4
                bad = 1
            }
            b = cyc[$1] + 0; c = $2 + 0
            if (b > 0 && c > b * (1 + tol)) {
                printf "%s: %s regressed: %d cycles vs baseline %d (%+.1f%%)\n", label, $1, c, b, (c - b) * 100.0 / b
                bad = 1
            } else if (b > 0 && c < b * (1 - tol)) {
                printf "%s: %s improved beyond tolerance: %d cycles vs baseline %d (%+.1f%%) — consider re-recording\n", label, $1, c, b, (c - b) * 100.0 / b
            }
        }
        END {
            for (k in cyc) if (!(k in seen)) {
                printf "%s: baseline key %s missing from current run\n", label, k
                bad = 1
            }
            exit bad
        }' "$1" "$2"
}

case "$mode" in
record)
    mkdir -p "$base_dir"
    echo "== recording baselines (small scale, 1 worker) =="
    run_benches "$base_dir"
    for name in "${benches[@]}"; do
        f="$base_dir/BENCH_$name.json"
        echo "recorded $f ($(extract "$f" | wc -l) keyed runs)"
    done
    ;;
check)
    for name in "${benches[@]}"; do
        f="$base_dir/BENCH_$name.json"
        [[ -f "$f" ]] || {
            echo "bench_baseline: $f missing — run \`scripts/bench_baseline.sh record\` first" >&2
            exit 2
        }
    done
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    echo "== baseline check (small scale, 1 worker, ${tolerance} cycle tolerance) =="
    run_benches "$work"
    ok=1
    for name in "${benches[@]}"; do
        extract "$base_dir/BENCH_$name.json" > "$work/$name.base"
        extract "$work/BENCH_$name.json" > "$work/$name.cur"
        if compare "$work/$name.base" "$work/$name.cur" "$name"; then
            echo "$name: $(wc -l < "$work/$name.cur") runs within baseline"
        else
            ok=0
        fi
    done
    [[ "$ok" == 1 ]] || { echo "bench_baseline: FAILED" >&2; exit 1; }
    echo "bench_baseline: OK"
    ;;
*)
    echo "usage: scripts/bench_baseline.sh [check|record]" >&2
    exit 2
    ;;
esac
