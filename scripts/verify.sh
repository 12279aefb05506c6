#!/usr/bin/env bash
# Tier-1 verification gate. Fully offline: the workspace has zero external
# crate dependencies, so no registry access is needed (and none is
# attempted — --offline makes any accidental reintroduction of an external
# dependency fail loudly instead of hanging on the network).
#
# Usage: scripts/verify.sh [--bench-smoke] [--driver] [FLAG]...
#
# Every run builds in release and runs the workspace tests. Each FLAG is a
# row of the table below: its extra `cargo test` runs, then its bench
# target at small scale. A bench checks its own numbers and exits nonzero
# on a failed gate, printing `FAIL <bench>: <gate>: <detail>`, so its exit
# status is the gate. Each bench's module doc lists its gates.
#
#   --bench-smoke  runs fig11 with 1 worker and then all workers, checks
#                  both write BENCH_fig11.json, and on machines with >= 4
#                  cores fails if the parallel run is not at least as fast
#                  as the serial one (15% noise margin)
#   --driver       builds a copy of the standalone benchmark/ crate and
#                  runs its tests, so a changed utpr-* signature it calls
#                  fails here; it builds into target/driver and never
#                  writes under benchmark/
#
# Environment:
#   UTPR_QC_SEED  override the property-test base seed (decimal or 0x-hex)
set -euo pipefail
cd "$(dirname "$0")/.."

# flag | extra `cargo test` runs, ';' between runs | bench target [VAR=value]...
rows=(
    # the utpr-qc micro-benchmarks
    "--bench      | | micro"
    # crash-point sweep of one structure, exhaustive
    "--faults     | | faults UTPR_FAULTS_ONLY=RB"
    # media plane, twin-pool property, torn/bit-flip campaign, CRC cost
    "--corruption | -p utpr-heap media; --test heap_props one_media_plane | corruption"
    # translation: sVALB tests, equivalence, sVALB hit rate, va2ra speedup
    "--hotpath    | -p utpr-heap lookaside; -p utpr-heap space::tests; --test heap_props translation; \
                    --test mode_equivalence translation_cache; --test crash_matrix peek_raw | hotpath"
    # guest-MIPS interpreter: the Fig. 4 soundness battery (which runs every
    # property through both interpreter paths), the interpreter's own tests,
    # differential grid, mem speedup, residual
    "--interp     | --test soundness_c11; -p utpr-cc interp | interp"
    # schedule explorer, mt crash sweeps, MT YCSB-A invariance and speedup
    "--mt         | -p utpr-qc sched; -p utpr-kv mt::; --test crash_matrix concurrent_fault_sweep; \
                    -p utpr-bench --test par_determinism mt_ycsb | hotpath"
    # durable-linearizability checker, conc crash sweeps, the shared
    # pool's lock-free persistence paths, its lock-free load races again on
    # their own (so each racing thread has a core), the twin-space property
    # with word and byte loads and stores, flush savings, shared-load probe
    "--concurrent | -p utpr-qc linear; -p utpr-qc --test selftest checker; -p utpr-kv conc; \
                    -p utpr-ds --test twin; -p utpr-heap shard::tests; \
                    -p utpr-heap shard::tests::loads_ -- --test-threads=1; \
                    --test heap_props sharded_heap_matches | concurrent"
    # soak, scrubber and media-plane tests, endurance gates
    "--endurance  | -p utpr-kv endurance; -p utpr-heap scrub; -p utpr-heap media; \
                    --test heap_props one_media_plane | endurance"
    # protocol battery, loopback tests, amortization, kill arm, PING p50
    "--serve      | -p utpr-serve | server"
)

flag_of() { local f; IFS='|' read -r f _ <<< "$1"; echo $f; }
known=" --bench-smoke --driver "
for row in "${rows[@]}"; do known+="$(flag_of "$row") "; done
for arg in "$@"; do
    [[ "$known" == *" $arg "* ]] || { echo "verify: unknown flag: $arg" >&2; exit 2; }
done
ARGS="$*"
wants() { [[ " $ARGS " == *" $1 "* ]]; }

# Every bench's temp dir, removed by the one EXIT trap.
tmp_dirs=()
trap 'rm -rf "${tmp_dirs[@]}"' EXIT
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

declare -A benched=()
for row in "${rows[@]}"; do
    IFS='|' read -r flag tests bench <<< "$row"
    read -r flag <<< "$flag"
    wants "$flag" || continue
    echo "== $flag =="
    IFS=';' read -ra runs <<< "$tests"
    for run in "${runs[@]}"; do
        read -ra args <<< "$run"
        if (( ${#args[@]} )); then cargo test -q --offline "${args[@]}"; fi
    done
    read -ra words <<< "$bench"
    target=${words[0]}
    [[ -z "${benched[$target]:-}" ]] || { echo "$target: already run"; continue; }
    benched[$target]=1
    mktemp_dir out
    env UTPR_BENCH_SCALE=small UTPR_BENCH_OUT="$out" "${words[@]:1}" \
        cargo bench -q -p utpr-bench --bench "$target" --offline ||
        { echo "verify: $flag: bench $target exited nonzero" >&2; exit 1; }
done

if wants --bench-smoke; then
    echo "== --bench-smoke: fig11 with 1 worker, then all workers =="
    mktemp_dir smoke_dir
    cargo bench -q -p utpr-bench --bench fig11 --offline --no-run
    # fig11_ns JOBS: runs fig11 on JOBS workers and prints its wall time in ns.
    fig11_ns() {
        local t0 out="$smoke_dir/jobs$1"
        t0=$(date +%s%N)
        UTPR_BENCH_SCALE=small UTPR_JOBS="$1" UTPR_BENCH_OUT="$out" \
            cargo bench -q -p utpr-bench --bench fig11 --offline > /dev/null || exit 1
        [[ -f "$out/BENCH_fig11.json" ]] || {
            echo "verify: fig11 on $1 workers wrote no BENCH_fig11.json" >&2
            exit 1
        }
        echo $(( $(date +%s%N) - t0 ))
    }
    jobs=$(nproc 2>/dev/null || echo 1)
    serial=$(fig11_ns 1)
    par=$(fig11_ns "$jobs")
    echo "smoke: serial $(( serial / 1000000 )) ms, $jobs workers $(( par / 1000000 )) ms"
    if (( jobs >= 4 )); then
        (( par * 100 <= serial * 115 )) || {
            echo "verify: parallel fig11 slower than serial beyond the 15% noise margin" >&2
            exit 1
        }
    else
        echo "smoke: < 4 cores, skipping speedup check"
    fi
fi

if wants --driver; then
    echo "== --driver: build and test the benchmark crate =="
    # Cargo rewrites a stale Cargo.lock, so build a copy one level under the
    # root instead: its `../crates` path dependencies and `../BENCHMARK.json`
    # still resolve, and benchmark/ is only ever read.
    copy=$(mktemp -d ./.driver-XXXXXX)
    tmp_dirs+=("$copy")
    cp -R benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src benchmark/tests "$copy"
    driver=(--offline --manifest-path "$copy/Cargo.toml" --target-dir target/driver)
    cargo build --release "${driver[@]}"
    cargo test --release "${driver[@]}"
fi

echo "verify: OK"
