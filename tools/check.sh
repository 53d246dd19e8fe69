#!/bin/sh
# Tier-1 verification plus a sanitizer pass.
#
#   tools/check.sh            # docs link check, tier-1 build + ctest, then
#                             # ASan, UBSan, and TSan test runs, then a
#                             # Release perf smoke
#   tools/check.sh --fast     # link check + tier-1 only (skip sanitizers +
#                             # perf smoke)
#
# Each configuration builds into its own directory (build/, build-asan/,
# build-ubsan/, build-tsan/, build-release/) so incremental re-runs stay
# cheap. The TSan leg only runs the concurrency-relevant suites (the thread
# pool and the parallel multi-partition growth under its static schedule)
# with the worker count forced above one. The
# perf-smoke leg builds the hot-path microbench at -O2 and runs its small
# fixture: bit-identity of the flat growth structures against the embedded
# pre-change baseline plus the zero-steady-state-allocation check, with
# BENCH_hotpath.json left behind as the artifact. The out-of-core leg caps
# the heap with `ulimit -d` below the CSR size and requires the mmap
# storage tier to reproduce the uncapped reference partition byte-for-byte
# while the in-memory control run dies on the same cap. The nosimd leg
# builds with -DTLP_DISABLE_SIMD=ON and proves the scalar-only
# configuration dispatches scalar and still passes the kernel and graph
# suites (the tier-1 kernel suites already sweep every supported kernel
# in-process and byte-compare their partitions).
set -eu

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

# Docs first: cheapest check, catches stale links before any compile.
echo "== check_links (README, DESIGN, docs/*.md) =="
python3 tools/check_links.py

run_suite() {
  dir="$1"
  shift
  echo "== configure $dir ($*) =="
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j "$JOBS"
  echo "== ctest $dir =="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
}

# Tier-1: the roadmap's verify command.
run_suite build

# Refinement smoke (~seconds): the gain-heap unit suite and the
# differential suite against the greedy oracle, rerun by name so the
# refinement contract stays visible in the fast leg. The same suites run in
# full as part of the tier-1 ctest above.
echo "== refinement smoke (GainHeap + RefineEngine) =="
(cd build && ctest --output-on-failure -R 'GainHeap|RefineEngine')

if [ "${1:-}" = "--fast" ]; then
  echo "check.sh: tier-1 OK (sanitizers skipped)"
  exit 0
fi

# Sanitizer passes: tests only (benches/examples just slow these down).
run_suite build-asan -DTLP_SANITIZE=address \
  -DTLP_BUILD_BENCH=OFF -DTLP_BUILD_EXAMPLES=OFF
run_suite build-ubsan -DTLP_SANITIZE=undefined \
  -DTLP_BUILD_BENCH=OFF -DTLP_BUILD_EXAMPLES=OFF

# TSan: only the suites that actually spin up threads. The multi_tlp suite
# includes cross-thread-count runs (2 to 16 workers), so claim/commit and
# frontier-update races surface here. The serial refine_engine suite rides
# along as a cheap guard on the shared arena and telemetry code it uses.
echo "== configure build-tsan (-DTLP_SANITIZE=thread) =="
cmake -B build-tsan -S . -DTLP_SANITIZE=thread \
  -DTLP_BUILD_BENCH=OFF -DTLP_BUILD_EXAMPLES=OFF > /dev/null
cmake --build build-tsan -j "$JOBS" \
  --target thread_pool_test multi_tlp_test refine_engine_test
echo "== ctest build-tsan (MultiTlp|ThreadPool|Refine) =="
(cd build-tsan && ctest --output-on-failure -R 'MultiTlp|ThreadPool|Refine')

# Perf smoke: -O2 hot-path microbench on a small fixture. Exits nonzero if
# the flat structures diverge from the embedded legacy baseline or the warm
# join/select path allocates; timings are informational at this size.
echo "== configure build-release (-DCMAKE_BUILD_TYPE=Release) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build-release -j "$JOBS" --target hotpath_micro
echo "== perf smoke (hotpath_micro --smoke) =="
(cd build-release/bench && ./hotpath_micro --smoke)

# Refinement perf smoke: two graphs at quarter scale through the win-
# condition table and the engine x base sweep. Exits nonzero if tlp+refine
# loses an RF cell to any registered baseline.
cmake --build build-release -j "$JOBS" --target refine_runtime
echo "== perf smoke (refine_runtime --smoke) =="
(cd build-release/bench && ./refine_runtime --smoke)

# Out-of-core smoke: a graph whose CSR exceeds the heap cap must still
# partition byte-identically on the mmap tier, and the same cap must kill
# the in-memory control run (otherwise the cap proves nothing). The cap is
# `ulimit -d` (RLIMIT_DATA: heap + private anonymous mmap), NOT `ulimit -v`
# (RLIMIT_AS): RLIMIT_AS counts read-only file mappings too, which would
# kill the mmap tier along with the heap it is designed to avoid.
echo "== out-of-core smoke (oocore_smoke, mmap under ulimit -d) =="
cmake --build build-release -j "$JOBS" --target oocore_smoke
OOC_DIR="build-release/oocore-smoke"
CAP_KB="$(build-release/tools/oocore_smoke --prepare "$OOC_DIR" \
  | sed -n 's/^cap_kb=//p')"
echo "-- heap cap: ${CAP_KB}KB (below the in-memory CSR)"
sh -c "ulimit -d $CAP_KB; build-release/tools/oocore_smoke --run $OOC_DIR mmap"
if sh -c "ulimit -d $CAP_KB; build-release/tools/oocore_smoke --run $OOC_DIR in_memory" \
    2> /dev/null; then
  echo "oocore smoke: FAIL — in-memory control survived the cap (cap too big)"
  exit 1
fi
echo "-- in-memory control failed under the cap, as required"

# Bounded-memory ingest: the external-sort spill convert must survive a
# heap cap below the raw canonical edge array AND byte-match the uncapped
# in-memory reference, with ids verbatim and with ids relabelled; the fully
# in-memory control build must die under the
# same cap (same RLIMIT_DATA rationale as the oocore leg above).
echo "== bounded-memory ingest smoke (spill convert under ulimit -d) =="
cmake --build build-release -j "$JOBS" --target ingest_smoke
ING_DIR="build-release/ingest-smoke"
ING_CAP_KB="$(build-release/tools/ingest_smoke --prepare "$ING_DIR" \
  | sed -n 's/^cap_kb=//p')"
echo "-- heap cap: ${ING_CAP_KB}KB (below the raw edge array)"
sh -c "ulimit -d $ING_CAP_KB; \
  TLP_BUILD_BUDGET=4m build-release/tools/ingest_smoke --convert $ING_DIR"
cmp "$ING_DIR/ingest.ref.tlpc" "$ING_DIR/ingest.spill.tlpc"
echo "-- spill convert byte-identical to uncapped reference"
# Same cap with relabelling on: the relabel table lives beside the chunk.
sh -c "ulimit -d $ING_CAP_KB; TLP_BUILD_BUDGET=4m \
  build-release/tools/ingest_smoke --convert-relabel $ING_DIR"
cmp "$ING_DIR/ingest.ref-relabel.tlpc" "$ING_DIR/ingest.spill-relabel.tlpc"
echo "-- relabel spill convert byte-identical to uncapped reference"
if sh -c "ulimit -d $ING_CAP_KB; \
    build-release/tools/ingest_smoke --control $ING_DIR" 2> /dev/null; then
  echo "ingest smoke: FAIL — in-memory control survived the cap (cap too big)"
  exit 1
fi
echo "-- in-memory control build failed under the cap, as required"

# Scalar-only configuration: -DTLP_DISABLE_SIMD=ON compiles the vector
# kernels out entirely; dispatch must resolve to scalar
# (IntersectKernels.ScalarOnlyBuildDispatchesScalar) and the kernel + graph
# suites must still pass.
echo "== configure build-nosimd (-DTLP_DISABLE_SIMD=ON) =="
cmake -B build-nosimd -S . -DTLP_DISABLE_SIMD=ON \
  -DTLP_BUILD_BENCH=OFF -DTLP_BUILD_EXAMPLES=OFF > /dev/null
cmake --build build-nosimd -j "$JOBS" \
  --target intersect_kernels_test kernel_differential_test graph_test
(cd build-nosimd && ctest --output-on-failure \
  -R 'IntersectKernels|IntersectionCost|KernelDifferential|Graph')

echo "check.sh: tier-1 + ASan + UBSan + TSan + perf + out-of-core +" \
     "ingest + nosimd green"
