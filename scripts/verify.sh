#!/usr/bin/env bash
# Tier-1 verification gate. Fully offline: the workspace has zero external
# crate dependencies, so no registry access is needed (and none is
# attempted — --offline makes any accidental reintroduction of an external
# dependency fail loudly instead of hanging on the network).
#
# Usage: scripts/verify.sh [--bench] [--bench-smoke] [--faults] [--corruption]
#                          [--hotpath] [--interp] [--mt] [--concurrent]
#                          [--endurance] [--serve]
#   --bench        additionally run the utpr-qc micro-benchmarks
#   --bench-smoke  additionally run fig11 at reduced scale with 1 worker and
#                  then all workers, check both emit BENCH_fig11.json, and —
#                  on machines with >= 4 cores — fail if the parallel run is
#                  not at least as fast as the serial one (15% noise margin)
#   --faults       additionally run a crash-point fault-sweep smoke: one
#                  structure, small scale, exhaustive; check BENCH_faults.json
#                  is emitted and reports zero failures
#   --corruption   additionally run the media-plane tests and the twin-pool
#                  property, then the media-fault campaign smoke (torn
#                  sweeps + bit-flip trials + CRC overhead, small scale);
#                  check BENCH_corruption.json is emitted, reports zero
#                  oracle failures, and CRC write-path overhead <= 15%
#   --hotpath      additionally run the software-lookaside smoke (small
#                  scale): check BENCH_hotpath.json is emitted, the
#                  cached-vs-uncached equivalence probes passed, the YCSB-A
#                  sVALB hit rate is >= 0.95, and the cached va2ra fast
#                  path is >= 3x the cold BTree walk
#   --interp       additionally run the guest-MIPS interpreter smoke (small
#                  scale): check BENCH_interp.json is emitted, the
#                  reference-vs-decoded differential grid passed
#                  (bit-identical checksums and counters), the paired
#                  mem-mix speedup is >= 2x, and the interprocedural
#                  residual check fraction is < 0.42
#   --concurrent   additionally run the durable-linearizability smoke: the
#                  Wing&Gong checker self-tests, the 2-thread exhaustive +
#                  3-thread sampled concurrent-history crash sweeps, the
#                  twin-structure properties, then the concurrent bench at
#                  small scale; check BENCH_concurrent.json is emitted with
#                  strategy- and thread-invariant checksums and that FliT
#                  and Traverse each cut flushes/op by >= 20% vs Eager on
#                  the 4-thread YCSB-A-style runs (hash and list)
#   --endurance    additionally run the endurance smoke: the kv soak
#                  tests (replay, hard gates, scrub-off loss, read-only
#                  eADR), the scrubber and media-plane tests and the
#                  twin-pool property, then the endurance bench at small
#                  scale; check
#                  BENCH_endurance.json is emitted with zero gate
#                  failures, scrub overhead at the realistic decay rate
#                  <= 10%, the scrub-off hot arm demonstrably losing
#                  keys (detected, never silent), and wear leveling
#                  cutting peak wear vs first-fit
#   --mt           additionally run the multicore smoke: the concurrent
#                  crash-matrix sweep (every crash point of a 3-thread
#                  seeded schedule recovers), then hotpath at small scale;
#                  check the multi-threaded YCSB-A arm's checksums are
#                  bit-identical at every thread count and the modelled
#                  8-core makespan speedup is >= 4x
#   --serve        additionally run the group-commit server smoke: the
#                  wire-protocol property battery, the loopback
#                  integration tests (semantics, fence gate, determinism,
#                  kill-mid-load recovery, idle policy and connection
#                  reaping), then the server bench at small
#                  scale; check BENCH_server.json is emitted with p99
#                  latency reported, batched fences/op at most half of
#                  unbatched (amortization >= 2x), window-invariant
#                  contents checksums, zero kill-arm oracle failures, and
#                  a PING round trip p50 under 200 us (one sleep quantum)
#
# Environment:
#   UTPR_QC_SEED  override the property-test base seed (decimal or 0x-hex)
set -euo pipefail
cd "$(dirname "$0")/.."

# Every flag block's temp dir, removed by the one EXIT trap: a trap per
# block would replace the previous one and leak all but the last dir.
tmp_dirs=()
trap 'rm -rf "${tmp_dirs[@]}"' EXIT
# mktemp_dir VAR: creates a temp dir, registers it, stores its path in VAR.
mktemp_dir() {
    local dir
    dir=$(mktemp -d)
    tmp_dirs+=("$dir")
    printf -v "$1" '%s' "$dir"
}

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q (workspace) =="
cargo test -q --workspace --offline

run_bench=0
run_smoke=0
run_faults=0
run_corruption=0
run_hotpath=0
run_interp=0
run_mt=0
run_concurrent=0
run_endurance=0
run_serve=0
for arg in "$@"; do
    case "$arg" in
        --bench) run_bench=1 ;;
        --bench-smoke) run_smoke=1 ;;
        --faults) run_faults=1 ;;
        --corruption) run_corruption=1 ;;
        --hotpath) run_hotpath=1 ;;
        --interp) run_interp=1 ;;
        --mt) run_mt=1 ;;
        --concurrent) run_concurrent=1 ;;
        --endurance) run_endurance=1 ;;
        --serve) run_serve=1 ;;
        *) echo "verify: unknown flag: $arg" >&2; exit 2 ;;
    esac
done

if [[ "$run_bench" == 1 ]]; then
    echo "== extra: micro-benchmarks =="
    cargo bench -p utpr-bench --bench micro --offline
fi

# Pulls "wall_ms":<num> out of a BENCH_*.json report without a JSON parser.
wall_ms() {
    sed -n 's/.*"wall_ms":\([0-9.]*\).*/\1/p' "$1"
}

if [[ "$run_smoke" == 1 ]]; then
    echo "== extra: parallel-runner smoke (fig11, small scale) =="
    mktemp_dir smoke_dir

    UTPR_BENCH_SCALE=small UTPR_JOBS=1 UTPR_BENCH_OUT="$smoke_dir/serial" \
        cargo bench -q -p utpr-bench --bench fig11 --offline > /dev/null
    [[ -f "$smoke_dir/serial/BENCH_fig11.json" ]] || {
        echo "verify: serial run did not emit BENCH_fig11.json" >&2
        exit 1
    }
    serial_ms=$(wall_ms "$smoke_dir/serial/BENCH_fig11.json")

    jobs=$(nproc 2>/dev/null || echo 1)
    UTPR_BENCH_SCALE=small UTPR_JOBS="$jobs" UTPR_BENCH_OUT="$smoke_dir/par" \
        cargo bench -q -p utpr-bench --bench fig11 --offline > /dev/null
    [[ -f "$smoke_dir/par/BENCH_fig11.json" ]] || {
        echo "verify: parallel run did not emit BENCH_fig11.json" >&2
        exit 1
    }
    par_ms=$(wall_ms "$smoke_dir/par/BENCH_fig11.json")

    echo "smoke: serial ${serial_ms} ms, ${jobs} workers ${par_ms} ms"
    if [[ "$jobs" -ge 4 ]]; then
        # The parallel run must be at least as fast as serial, within a 15%
        # noise margin. On fewer than 4 cores there is nothing to gain, so
        # only the JSON emission is checked.
        awk -v s="$serial_ms" -v p="$par_ms" 'BEGIN { exit !(p <= s * 1.15) }' || {
            echo "verify: parallel fig11 (${par_ms} ms) slower than serial (${serial_ms} ms) beyond noise" >&2
            exit 1
        }
    else
        echo "smoke: < 4 cores, skipping speedup check"
    fi
fi

if [[ "$run_faults" == 1 ]]; then
    echo "== extra: crash-point fault-sweep smoke (RB, small scale) =="
    mktemp_dir faults_dir

    UTPR_BENCH_SCALE=small UTPR_FAULTS_ONLY=RB UTPR_BENCH_OUT="$faults_dir" \
        cargo bench -q -p utpr-bench --bench faults --offline
    [[ -f "$faults_dir/BENCH_faults.json" ]] || {
        echo "verify: fault sweep did not emit BENCH_faults.json" >&2
        exit 1
    }
    grep -q '"total_failures":0' "$faults_dir/BENCH_faults.json" || {
        echo "verify: fault sweep reported failures:" >&2
        cat "$faults_dir/BENCH_faults.json" >&2
        exit 1
    }
    echo "smoke: fault sweep clean"
fi

if [[ "$run_corruption" == 1 ]]; then
    echo "== extra: media-fault campaign smoke (small scale) =="
    # The media plane's own tests and the twin-pool property: owned and
    # shared pools seal, verify, scrub and quarantine identically.
    cargo test -q --offline -p utpr-heap media
    cargo test -q --offline --test heap_props one_media_plane
    mktemp_dir corr_dir

    # The bench itself exits nonzero on any oracle failure (silent wrong
    # answer, undetected flip, failed recovery) — set -e propagates that.
    UTPR_BENCH_SCALE=small UTPR_BENCH_OUT="$corr_dir" \
        cargo bench -q -p utpr-bench --bench corruption --offline
    [[ -f "$corr_dir/BENCH_corruption.json" ]] || {
        echo "verify: media-fault campaign did not emit BENCH_corruption.json" >&2
        exit 1
    }
    grep -q '"total_failures":0' "$corr_dir/BENCH_corruption.json" || {
        echo "verify: media-fault campaign reported oracle failures:" >&2
        cat "$corr_dir/BENCH_corruption.json" >&2
        exit 1
    }
    overhead=$(sed -n 's/.*"crc_overhead_frac":\(-\{0,1\}[0-9.]*\).*/\1/p' "$corr_dir/BENCH_corruption.json")
    awk -v o="$overhead" 'BEGIN { exit !(o <= 0.15) }' || {
        echo "verify: CRC write-path overhead ${overhead} exceeds the 15% budget" >&2
        exit 1
    }
    echo "smoke: media-fault campaign clean (CRC overhead ${overhead})"
fi

if [[ "$run_hotpath" == 1 ]]; then
    echo "== extra: software-lookaside smoke (small scale) =="
    mktemp_dir hp_dir

    # The bench exits nonzero itself when any cached-vs-uncached divergence
    # is observed — set -e propagates that.
    UTPR_BENCH_SCALE=small UTPR_BENCH_OUT="$hp_dir" \
        cargo bench -q -p utpr-bench --bench hotpath --offline
    [[ -f "$hp_dir/BENCH_hotpath.json" ]] || {
        echo "verify: hotpath smoke did not emit BENCH_hotpath.json" >&2
        exit 1
    }
    grep -q '"equivalence_ok":true' "$hp_dir/BENCH_hotpath.json" || {
        echo "verify: hotpath smoke reported cached-vs-uncached divergence:" >&2
        cat "$hp_dir/BENCH_hotpath.json" >&2
        exit 1
    }
    hit_rate=$(sed -n 's/.*"svalb_hit_rate":\([0-9.]*\).*/\1/p' "$hp_dir/BENCH_hotpath.json")
    awk -v h="$hit_rate" 'BEGIN { exit !(h >= 0.95) }' || {
        echo "verify: YCSB-A sVALB hit rate ${hit_rate} below the 0.95 floor" >&2
        exit 1
    }
    speedup=$(sed -n 's/.*"speedup":\([0-9.]*\).*/\1/p' "$hp_dir/BENCH_hotpath.json")
    awk -v s="$speedup" 'BEGIN { exit !(s >= 3.0) }' || {
        echo "verify: cached va2ra only ${speedup}x the cold walk (need >= 3x)" >&2
        exit 1
    }
    echo "smoke: lookasides clean (speedup ${speedup}x, sVALB hit rate ${hit_rate})"
fi

if [[ "$run_interp" == 1 ]]; then
    echo "== extra: interpreter fast-path smoke (small scale) =="
    mktemp_dir in_dir

    # The bench exits nonzero itself when the differential grid diverges
    # (results, checksums, fuel, or counters) — set -e propagates that.
    UTPR_BENCH_SCALE=small UTPR_BENCH_OUT="$in_dir" \
        cargo bench -q -p utpr-bench --bench interp --offline
    [[ -f "$in_dir/BENCH_interp.json" ]] || {
        echo "verify: interp smoke did not emit BENCH_interp.json" >&2
        exit 1
    }
    grep -q '"checksums_ok":true' "$in_dir/BENCH_interp.json" || {
        echo "verify: interp smoke reported reference-vs-decoded divergence:" >&2
        cat "$in_dir/BENCH_interp.json" >&2
        exit 1
    }
    speedup=$(sed -n 's/.*"speedup_mem":\([0-9.]*\).*/\1/p' "$in_dir/BENCH_interp.json")
    awk -v s="$speedup" 'BEGIN { exit !(s >= 2.0) }' || {
        echo "verify: decoded mem mixes only ${speedup}x the reference walk (need >= 2x)" >&2
        exit 1
    }
    residual=$(sed -n 's/.*"residual_check_fraction":\([0-9.]*\).*/\1/p' "$in_dir/BENCH_interp.json")
    awk -v r="$residual" 'BEGIN { exit !(r < 0.42) }' || {
        echo "verify: interprocedural residual check fraction ${residual} not < 0.42" >&2
        exit 1
    }
    echo "smoke: interp clean (mem speedup ${speedup}x, residual ${residual})"
fi

if [[ "$run_mt" == 1 ]]; then
    echo "== extra: multicore smoke (schedule explorer + crash sweeps + MT YCSB-A) =="
    cargo test -q --offline -p utpr-qc sched
    cargo test -q --offline -p utpr-kv mt::
    cargo test -q --offline --test crash_matrix concurrent_fault_sweep
    cargo test -q --offline -p utpr-bench --test par_determinism mt_ycsb

    mktemp_dir mt_dir

    # The bench exits nonzero itself when the MT checksums diverge across
    # thread counts — set -e propagates that.
    UTPR_BENCH_SCALE=small UTPR_BENCH_OUT="$mt_dir" \
        cargo bench -q -p utpr-bench --bench hotpath --offline
    [[ -f "$mt_dir/BENCH_hotpath.json" ]] || {
        echo "verify: multicore smoke did not emit BENCH_hotpath.json" >&2
        exit 1
    }
    grep -q '"mt_checksum_ok":true' "$mt_dir/BENCH_hotpath.json" || {
        echo "verify: MT YCSB-A checksums diverged across thread counts:" >&2
        cat "$mt_dir/BENCH_hotpath.json" >&2
        exit 1
    }
    mt_speedup=$(sed -n 's/.*"mt_speedup_8":\([0-9.]*\).*/\1/p' "$mt_dir/BENCH_hotpath.json")
    awk -v s="$mt_speedup" 'BEGIN { exit !(s >= 4.0) }' || {
        echo "verify: 8-core modelled speedup ${mt_speedup}x below the 4x floor" >&2
        exit 1
    }
    echo "smoke: multicore clean (8-core speedup ${mt_speedup}x, checksums thread-count-invariant)"
fi

if [[ "$run_concurrent" == 1 ]]; then
    echo "== extra: durable-linearizability smoke (checker + crash sweeps + flush-savings gate) =="
    # Checker self-tests (unit + macro-API selftests with the planted
    # corruptions), the turnstile, the concurrent-history crash sweeps
    # (2-thread exhaustive and 3-thread sampled, all strategies), and the
    # 1-thread twin-structure properties.
    cargo test -q --offline -p utpr-qc linear
    cargo test -q --offline -p utpr-qc --test selftest checker
    cargo test -q --offline -p utpr-kv conc
    cargo test -q --offline -p utpr-ds --test twin

    mktemp_dir cc_dir

    # The bench exits nonzero itself when the audit checksum varies with
    # flush strategy or thread count — set -e propagates that.
    UTPR_BENCH_SCALE=small UTPR_BENCH_OUT="$cc_dir" \
        cargo bench -q -p utpr-bench --bench concurrent --offline
    [[ -f "$cc_dir/BENCH_concurrent.json" ]] || {
        echo "verify: concurrent smoke did not emit BENCH_concurrent.json" >&2
        exit 1
    }
    grep -q '"checksum_ok":true' "$cc_dir/BENCH_concurrent.json" || {
        echo "verify: concurrent checksums diverged across strategies/threads:" >&2
        cat "$cc_dir/BENCH_concurrent.json" >&2
        exit 1
    }
    for key in flit_savings_chash_t4 traverse_savings_chash_t4 \
               flit_savings_clist_t4 traverse_savings_clist_t4; do
        saving=$(sed -n "s/.*\"$key\":\(-\{0,1\}[0-9.]*\).*/\1/p" "$cc_dir/BENCH_concurrent.json")
        awk -v s="$saving" 'BEGIN { exit !(s >= 0.20) }' || {
            echo "verify: $key = ${saving}, below the 20% flush-reduction floor" >&2
            exit 1
        }
        echo "smoke: $key = ${saving}"
    done
    echo "smoke: concurrent clean (checksums invariant, flush savings >= 20%)"
fi

if [[ "$run_endurance" == 1 ]]; then
    echo "== extra: endurance smoke (soak tests + bench gates, small scale) =="
    # The seeded-soak unit tests: bit-for-bit replay, the hard
    # zero-silent-corruption gates, scrub-off loss at hot decay, and the
    # read-only eADR arm.
    cargo test -q --offline -p utpr-kv endurance
    cargo test -q --offline -p utpr-heap scrub
    cargo test -q --offline -p utpr-heap media
    cargo test -q --offline --test heap_props one_media_plane

    mktemp_dir end_dir

    # The bench exits nonzero itself on any gate failure (undetected
    # flip, silent audit mismatch, a too-gentle scrub-off arm, or wear
    # leveling failing to cut peak wear) — set -e propagates that.
    UTPR_BENCH_SCALE=small UTPR_BENCH_OUT="$end_dir" \
        cargo bench -q -p utpr-bench --bench endurance --offline
    [[ -f "$end_dir/BENCH_endurance.json" ]] || {
        echo "verify: endurance smoke did not emit BENCH_endurance.json" >&2
        exit 1
    }
    grep -q '"total_failures":0' "$end_dir/BENCH_endurance.json" || {
        echo "verify: endurance smoke reported gate failures:" >&2
        cat "$end_dir/BENCH_endurance.json" >&2
        exit 1
    }
    overhead=$(sed -n 's/.*"scrub_overhead_frac":\([0-9.]*\).*/\1/p' "$end_dir/BENCH_endurance.json")
    awk -v o="$overhead" 'BEGIN { exit !(o <= 0.10) }' || {
        echo "verify: scrub overhead ${overhead} exceeds the 10% budget at the realistic decay rate" >&2
        exit 1
    }
    lost=$(sed -n 's/.*"lost_keys_noscrub_hot":\([0-9]*\).*/\1/p' "$end_dir/BENCH_endurance.json")
    awk -v l="$lost" 'BEGIN { exit !(l > 0) }' || {
        echo "verify: scrub-off hot arm lost no keys — the soak is too gentle to test the scrubber" >&2
        exit 1
    }
    echo "smoke: endurance clean (scrub overhead ${overhead}, scrub-off hot arm lost ${lost} keys, all detected)"
fi

if [[ "$run_serve" == 1 ]]; then
    echo "== extra: group-commit server smoke (protocol + loopback + bench gates) =="
    # The wire-protocol property battery (round-trip bit-for-bit under
    # arbitrary chunking, mutation robustness, typed malformed-frame
    # errors) and the loopback integration tests (serving semantics,
    # the fence-amortization gate, contents determinism, and the
    # kill-mid-load recovery oracles).
    cargo test -q --offline -p utpr-serve

    mktemp_dir srv_dir

    # The bench exits nonzero itself when a gate fails (amortization
    # < 2x, checksum divergence across windows/modes, or a kill-arm
    # oracle violation) — set -e propagates that.
    UTPR_BENCH_SCALE=small UTPR_BENCH_OUT="$srv_dir" \
        cargo bench -q -p utpr-bench --bench server --offline
    [[ -f "$srv_dir/BENCH_server.json" ]] || {
        echo "verify: server smoke did not emit BENCH_server.json" >&2
        exit 1
    }
    grep -q '"p99_us":' "$srv_dir/BENCH_server.json" || {
        echo "verify: server smoke reported no p99 latency" >&2
        exit 1
    }
    grep -q '"checksum_ok":true' "$srv_dir/BENCH_server.json" || {
        echo "verify: server contents checksums diverged across batch windows:" >&2
        cat "$srv_dir/BENCH_server.json" >&2
        exit 1
    }
    grep -q '"kill_oracles_ok":true' "$srv_dir/BENCH_server.json" || {
        echo "verify: kill-mid-load arm reported oracle failures:" >&2
        cat "$srv_dir/BENCH_server.json" >&2
        exit 1
    }
    amort=$(sed -n 's/.*"fence_amortization":\([0-9.]*\).*/\1/p' "$srv_dir/BENCH_server.json")
    awk -v a="$amort" 'BEGIN { exit !(a >= 2.0) }' || {
        echo "verify: fence amortization ${amort}x below the 2x floor (batched fences/op must be <= 0.5x unbatched)" >&2
        exit 1
    }
    # One sleep quantum: a PING measures ~7 us when nothing on the request
    # path sleeps (33 us when the blocked client's wake-up lands on a halted
    # core) and >= 200 us as soon as anything does.
    ping=$(sed -n 's/.*"name":"serve_ping_rtt"[^}]*"p50_us":\([0-9.]*\).*/\1/p' "$srv_dir/BENCH_server.json")
    awk -v p="$ping" 'BEGIN { exit !(p != "" && p < 200) }' || {
        echo "verify: PING round trip p50 '${ping}' us is not under 200 us — something sleeps on the request path" >&2
        exit 1
    }
    echo "smoke: server clean (amortization ${amort}x, checksums invariant, kill arm recovered, PING p50 ${ping} us)"
fi

echo "verify: OK"
