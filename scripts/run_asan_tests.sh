#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer
# (-DPORTLAND_SANITIZE=address,undefined, with UB made fatal) in a separate
# build directory and runs every test binary under it through ctest. The
# fast path leans on in-place frame patching, slot-pooled event payloads,
# and lazily drained link queues, and snapshot restore parses untrusted
# images — exactly the kind of code the sanitizers are for.
set -eu
cd "$(dirname "$0")/.."
BUILD=build-asan
cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPORTLAND_SANITIZE=address,undefined \
      -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined >/dev/null
cmake --build "$BUILD" --parallel "$(nproc)"
cd "$BUILD"
ctest --output-on-failure -j "$(nproc)"
