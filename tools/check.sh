#!/bin/sh
# Tier-1 verification plus a sanitizer pass.
#
#   tools/check.sh            # docs link check, library-consumer check,
#                             # tier-1 build + ctest, then
#                             # ASan (Debug, asserts and libstdc++
#                             # bounds checks on) and UBSan (-Werror)
#                             # test runs, then the Release smokes
#   tools/check.sh --fast     # link + consumer checks, tier-1 and the
#                             # refinement and ingest reruns only
#                             # (skip sanitizers + Release smokes)
#
# Each configuration builds into its own directory (build/, build-asan/,
# build-ubsan/, build-release/) so incremental re-runs stay
# cheap. No library code starts a thread, so there is no ThreadSanitizer
# leg. The refinement perf smoke runs refine_runtime's win table at -O2. The
# growth oracle (TlpReference*), the multi_tlp byte pin and level-rounds
# check (MultiTlp.OutputBytesPinned, MultiTlp.RoundsStayLevel), the
# warm-arena gate
# (RunContext.WarmRerunAddsNoArenaMissesOnPowerLaw) run in every ctest
# leg. The out-of-core leg caps the heap with `ulimit -d` below the CSR
# size and requires the mmap storage tier to reproduce the uncapped
# reference partition byte-for-byte while the in-memory control run dies
# on the same cap.
set -eu

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

# Docs first: cheapest check, catches stale links before any compile.
echo "== check_links (README, DESIGN, docs/*.md) =="
python3 tools/check_links.py

# Every src/ header needs an includer outside tests/: a module only its
# tests use goes with them.
echo "== check_consumers (src/*/*.hpp includers outside tests/) =="
python3 tools/check_consumers.py

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

# Ingest smoke (~seconds): the builder's differential and spill suites, the
# relabel table, the text parser (its 64-edge blocks included) and the
# reader fuzzers, rerun by name so the byte-identity contract of ingest
# stays visible in the fast leg.
echo "== ingest smoke (BuilderSpill + RelabelTable + EdgeList* + IoFuzz) =="
(cd build && ctest --output-on-failure \
  -R 'BuilderSpill|RelabelTable|EdgeListReader|EdgeListParser|IoFuzz|GraphBuilder')

if [ "${1:-}" = "--fast" ]; then
  echo "check.sh: tier-1 OK (sanitizers skipped)"
  exit 0
fi

# Sanitizer passes: tests only (benches/examples just slow these down).
# The ASan leg is a Debug build, the one leg without NDEBUG, so the
# assert-guarded invariants (frontier counts, heap and gain bookkeeping)
# run somewhere. It also defines _GLIBCXX_ASSERTIONS, so every std::vector
# operator[] (arena leases, frontier slots, prefetch indices) is
# bounds-checked.
run_suite build-asan -DTLP_SANITIZE=address -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS \
  -DTLP_BUILD_BENCH=OFF -DTLP_BUILD_EXAMPLES=OFF
# The UBSan leg also builds with -Werror, so a new compiler warning fails
# CI instead of scrolling past in the tier-1 build log.
run_suite build-ubsan -DTLP_SANITIZE=undefined -DTLP_WERROR=ON \
  -DTLP_BUILD_BENCH=OFF -DTLP_BUILD_EXAMPLES=OFF

# Refinement perf smoke: two graphs at quarter scale through the win-
# condition table and the engine x base sweep. Exits nonzero if tlp+refine
# loses an RF cell to any registered baseline.
echo "== configure build-release (-DCMAKE_BUILD_TYPE=Release) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
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

echo "check.sh: tier-1 + ASan + UBSan + refine smoke + out-of-core +" \
     "ingest green"
