#!/usr/bin/env bash
# Runs every experiment bench in order, as cited by EXPERIMENTS.md.
#
# Every bench emits machine-readable output next to the binaries:
#   build/BENCH_e<N>.json   headline metrics of bench_e<N> (flat JSON)
#   build/BENCH_e6.json     google-benchmark JSON for the E6 micro suite
#   build/BENCH_e10.json    google-benchmark JSON for the E10 micro suite
#
# --smoke: CI mode — 1 repetition, small fabrics, short measurement
# windows. The numbers are meaningless; the point is that every bench
# still runs end to end and emits its JSON. Exits nonzero if any expected
# BENCH_e*.json is missing afterwards.
set -u
cd "$(dirname "$0")/.."

SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

rm -f build/BENCH_e*.json

# Positional/flag arguments per bench in smoke mode (keep fabrics tiny and
# repetitions minimal); empty = the bench's defaults.
smoke_args() {
  case "$1" in
    e1_convergence)      echo "4 2" ;;         # max k, seeds per k
    e12_ldp_scale)       echo "8" ;;           # max k
    *)                   echo "" ;;
  esac
}

# Simple benches: positional args keep their defaults; --json adds the
# machine-readable report.
for n in e1_convergence e2_tcp_convergence e3_multicast_convergence \
         e4_vm_migration e5_state_table e7_control_overhead \
         e8_baseline_ethernet e9_ecmp_loopfree e11_ecmp_ablation \
         e12_ldp_scale e13_path_audit; do
  b="build/bench/bench_$n"
  short="${n%%_*}"   # e1_convergence -> e1
  extra=""
  [ "$SMOKE" = 1 ] && extra="$(smoke_args "$n")"
  echo
  echo "################  $(basename "$b")  ################"
  # shellcheck disable=SC2086  # intentional word splitting of $extra
  "$b" $extra --json "build/BENCH_${short}.json" || echo "BENCH FAILED: $b"
done

# google-benchmark suites use their native JSON output.
GBENCH_EXTRA=""
[ "$SMOKE" = 1 ] && GBENCH_EXTRA="--benchmark_min_time=0.01"
for n in e6_fm_arp_scaling e10_micro; do
  b="build/bench/bench_$n"
  short="${n%%_*}"
  echo
  echo "################  $(basename "$b")  ################"
  "$b" --benchmark_out="build/BENCH_${short}.json" \
       --benchmark_out_format=json $GBENCH_EXTRA \
    || echo "BENCH FAILED: $b"
done

E14_ARGS=""
E15_ARGS=""
E16_ARGS=""
E17_ARGS=""
E18_ARGS=""
E19_ARGS=""
E20_ARGS=""
E21_ARGS=""
E22_ARGS=""
if [ "$SMOKE" = 1 ]; then
  E14_ARGS="--k 4 --flows-per-host 1"
  E15_ARGS="--k 4 --threads 2 --reps 1 --measure-ms 50"
  E16_ARGS="--k 4 --reps 1 --measure-ms 50 --micro-ops 20000"
  E17_ARGS="--k 4 --reps 1 --measure-ms 50"
  # The workers 4 vs 1 ratio is gated (bench/baseline.json): ~1 ms
  # windows x 2 reps swung it 0.65-1.11 between identical runs on a shared
  # 4-vCPU VM, so each rep times ~12 ms and best-of-7 interleaved reps.
  E18_ARGS="--k 4 --cap-k 4 --reps 7 --measure-us 100000 --interval-us 4000 --burst 32"
  E19_ARGS="--ks 8 --flows 64 --measure-ms 20 --warm-ms 10"
  E20_ARGS="--ks 4 --queries 2 --flows 16 --warm-ms 20"
  E21_ARGS="4 8 1,3"
  # k=16 keeps hosts/edge at 8 so the coalescing ratio is still meaningful
  # (the ratio is bounded by hosts per edge switch).
  E22_ARGS="--ks 16 --resolutions 4000 --absent-hosts 16"
fi
# Slow CI boxes gate e19 convergence on simulated-time budget, not
# wall-clock: export E19_CONVERGE_BUDGET_S to override the bench default.
if [ -n "${E19_CONVERGE_BUDGET_S:-}" ]; then
  E19_ARGS="$E19_ARGS --converge-budget-s $E19_CONVERGE_BUDGET_S"
fi

# shellcheck disable=SC2086
for spec in "e14_fastpath:$E14_ARGS" "e15_parallel:$E15_ARGS" \
            "e16_event_queue:$E16_ARGS" "e17_observability:$E17_ARGS" \
            "e18_burst:$E18_ARGS" "e19_scale:$E19_ARGS" \
            "e20_snapshot:$E20_ARGS" "e21_convergence:$E21_ARGS" \
            "e22_arp_storm:$E22_ARGS"; do
  n="${spec%%:*}"
  extra="${spec#*:}"
  b="build/bench/bench_$n"
  short="${n%%_*}"
  echo
  echo "################  $(basename "$b")  ################"
  # shellcheck disable=SC2086
  "$b" $extra --json "build/BENCH_${short}.json" || echo "BENCH FAILED: $b"
done

# Every bench above must have left its JSON behind; a missing file means a
# bench crashed or silently stopped emitting — fail loudly (bit-rot guard).
echo
MISSING=0
for pair in e1:e1_convergence e2:e2_tcp_convergence \
            e3:e3_multicast_convergence e4:e4_vm_migration \
            e5:e5_state_table e6:e6_fm_arp_scaling e7:e7_control_overhead \
            e8:e8_baseline_ethernet e9:e9_ecmp_loopfree e10:e10_micro \
            e11:e11_ecmp_ablation e12:e12_ldp_scale e13:e13_path_audit \
            e14:e14_fastpath e15:e15_parallel e16:e16_event_queue \
            e17:e17_observability e18:e18_burst e19:e19_scale \
            e20:e20_snapshot e21:e21_convergence e22:e22_arp_storm; do
  short="${pair%%:*}"
  f="build/BENCH_${short}.json"
  if [ ! -s "$f" ]; then
    echo "MISSING: $f (bench_${pair#*:} crashed or stopped emitting JSON)"
    MISSING=1
  fi
done
if [ "$MISSING" = 1 ]; then
  echo "FAIL: some benches did not emit their JSON report"
  exit 1
fi
echo "all $(ls build/BENCH_e*.json | wc -l) bench reports present."
