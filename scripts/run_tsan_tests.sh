#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DPORTLAND_SANITIZE=thread) in a
# separate build directory and soaks the parallel engine under it: the
# sharded-simulator unit tests, the link-train ring tests (a train spilled
# at the window barrier by the coordinator drains on a worker, so its
# spill block retires into another thread's pool), plus the fabric-level
# determinism soak,
# which runs the full chaos scenario (failures, repairs, VM migration,
# multicast) with 4 worker threads. Any cross-shard access the
# conservative-lookahead windows fail to order shows up here as a data
# race.
set -eu
cd "$(dirname "$0")/.."
BUILD=build-tsan
cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPORTLAND_SANITIZE=thread >/dev/null
cmake --build "$BUILD" --parallel "$(nproc)" --target test_sim test_soak

echo
echo "################  test_sim / sharded engine (TSan)  ################"
"$BUILD/tests/test_sim" --gtest_filter='Sharded.*:LinkTrain.*'

echo
echo "################  test_soak / parallel soak (TSan)  ################"
# TSAN_OPTIONS halt_on_error makes a race fail the script, not just log.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/test_soak" \
  --gtest_filter='Soak.ParallelEngineIsWorkerCountInvariant:Soak.ChaosSoakMatchesGoldenDigest:Soak.FlightRecorderIsInvisibleToExecution:Soak.BurstModeIsInvisibleToExecution:Soak.ConvergenceMonitorIsInvisibleToExecution:Soak.ShardedFmIsInvisibleToExecution:Soak.FmReplicaStreamIsWorkerCountInvariant:Soak.MonitorIsIndependentOfRings'
