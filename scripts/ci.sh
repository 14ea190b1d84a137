#!/usr/bin/env bash
# Harness-level CI: docs checks (module READMEs present, markdown links
# resolve), configure, build, run the test suite, then run every bench
# binary at --scale smoke (and a short micro-crypto sweep) so that a perf
# regression or bit-rotted bench fails the pipeline, not just a broken unit
# test. Also emits BENCH_scalar.json (the merged metrics of the scalar,
# fault, net and group suites; schema in docs/benchmarks.md) so future
# revisions have a perf trajectory to diff against.
#
# Usage: scripts/ci.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc)"

# The build tree must stay out of version control: refuse to build into a
# directory git would track (build/ is in .gitignore; anything else needs to
# be ignored too, or live outside the work tree).
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  ignore_status=0
  git check-ignore -q "$BUILD_DIR/.ci-probe" 2> /dev/null || ignore_status=$?
  # 0 = ignored (fine); 128 = outside the work tree (also fine); 1 = a
  # build into the work tree that git would pick up.
  if [ "$ignore_status" -eq 1 ]; then
    echo "ci.sh: build dir '$BUILD_DIR' is not git-ignored;" \
         "add it to .gitignore or build outside the work tree" >&2
    exit 1
  fi
fi

# Documentation gate: every src/<module>/ must carry a README.md, and no
# markdown link in any README.md (or docs/*.md) may point at a nonexistent
# file — so the module map cannot rot silently.
docs_failed=0
for module_dir in src/*/; do
  if [ ! -f "$module_dir/README.md" ]; then
    echo "ci.sh: missing $module_dir/README.md" >&2
    docs_failed=1
  fi
done
# Relative markdown links: [text](target). External links (scheme:// or
# mailto:) and pure #anchors are skipped; optional "title" suffixes are
# stripped; /-rooted targets resolve against the repo root; intra-repo
# anchors are checked by file part.
while IFS=: read -r doc target; do
  target="${target%% \"*}"
  target="${target%% \'*}"
  case "$target" in
    *://*|mailto:*|'#'*) continue ;;
    /*) resolved=".${target%%#*}" ;;
    *)  resolved="$(dirname "$doc")/${target%%#*}" ;;
  esac
  if [ ! -e "$resolved" ]; then
    echo "ci.sh: broken link in $doc -> $target" >&2
    docs_failed=1
  fi
done < <(find . \( -name 'build*' -o -name '.git' \) -prune -o -name '*.md' -print \
           | grep -E 'README\.md$|^\./docs/' \
           | xargs grep -oE '\]\([^)]+\)' /dev/null \
           | sed -E 's/\]\(([^)]*)\)$/\1/')
if [ "$docs_failed" -ne 0 ]; then
  echo "ci.sh: documentation checks failed" >&2
  exit 1
fi
echo "ci.sh: documentation checks passed"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# Forced single-thread pass: IBBE_THREADS=1 makes every parallel_for inline
# on the calling thread (the pool spawns no workers). The whole suite must
# stay green with the pool compiled in but idle — serial recoverability is
# a hard requirement, same contract as the forced-portable stage below.
echo "==> ctest (IBBE_THREADS=1, pool inline)"
IBBE_THREADS=1 ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# The networked front-end by name under the inline pool: the NetServer's
# session threads and the long-poll wake path must not depend on worker
# threads existing. Already inside the ctest pass above; pinned here so a
# future filtered ctest invocation cannot silently drop it.
echo "==> $BUILD_DIR/net_test (IBBE_THREADS=1)"
IBBE_THREADS=1 "$BUILD_DIR/net_test" --gtest_brief=1

# Figure/table reproduction benches, smoke scale (seconds each).
for bench in "$BUILD_DIR"/bench_fig* "$BUILD_DIR"/bench_table* \
             "$BUILD_DIR"/bench_ablation*; do
  [ -x "$bench" ] || continue
  echo "==> $bench --scale smoke"
  "$bench" --scale smoke
done

# Perf trajectory: the four suites merge their metrics into one flat
# BENCH_scalar.json (schema in docs/benchmarks.md) for cross-revision
# diffing; each run adds its keys to what the previous ones wrote.
SNAPSHOT="$BUILD_DIR/BENCH_scalar.json"
rm -f "$SNAPSHOT"

# Scalar multiplication, pairing and decrypt. The bench header prints which
# Montgomery backend (MULX/ADX vs portable) the run dispatched to.
echo "==> $BUILD_DIR/bench_scalar_suite"
"$BUILD_DIR/bench_scalar_suite" --scale smoke --json "$SNAPSHOT"

# Degraded mode: admin mutation cost at 0%/1%/10% cloud fault rates plus
# 64-partition crash recovery.
echo "==> $BUILD_DIR/bench_fault_suite"
"$BUILD_DIR/bench_fault_suite" --scale smoke --json "$SNAPSHOT"

# Networked front-end: RPC round-trip cost and long-poll fan-out wake-up
# latency against a live loopback NetServer.
echo "==> $BUILD_DIR/bench_net_suite"
"$BUILD_DIR/bench_net_suite" --scale smoke --json "$SNAPSHOT"

# Million-member group state on the real AdminApi: mutation throughput,
# index bytes per membership op under the sharded layout vs the monolithic
# matrix (the bench itself fails below the 100x acceptance ratio) and the
# client delta-fold cost. The RSS ceiling is always on: the million-member
# scenario must never regress into matrix-sized allocations.
echo "==> $BUILD_DIR/bench_group_suite"
"$BUILD_DIR/bench_group_suite" --scale smoke --rss-ceiling-mb 1536 \
  --json "$SNAPSHOT"
cat "$SNAPSHOT"

# Diff against the committed baseline snapshot: prints per-metric ratios and
# WARNS (never fails — container timings jitter) on >1.15x regressions.
if [ -f BENCH_baseline.json ]; then
  echo "==> bench_diff vs BENCH_baseline.json"
  python3 scripts/bench_diff.py BENCH_baseline.json "$SNAPSHOT"
else
  echo "ci.sh: no BENCH_baseline.json committed; skipping perf diff" >&2
fi

# Micro benches of the crypto substrate (built only when google-benchmark is
# available); keep the run short — this is a regression tripwire, not a
# measurement.
if [ -x "$BUILD_DIR/bench_micro_crypto" ]; then
  echo "==> $BUILD_DIR/bench_micro_crypto (smoke)"
  "$BUILD_DIR/bench_micro_crypto" \
    --benchmark_filter='FrInverse|G1ScalarMul|G1MulGlv|G2MulGls|MsmG2|GtExp|GtPowU|Pairing' \
    --benchmark_min_time=0.05
fi

# When this machine can run the MULX/ADX Montgomery backend, the suite above
# exercised only the accelerated path — build and test a second tree with the
# backend compiled out (-DIBBE_FORCE_PORTABLE_MUL=ON) and the runtime
# override exported too, so the portable fallback stays green on every
# commit. Results are bit-identical by construction; only timings differ.
if [ -r /proc/cpuinfo ] && grep -qw adx /proc/cpuinfo; then
  PORTABLE_DIR="${BUILD_DIR}-portable"
  if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    portable_ignore=0
    git check-ignore -q "$PORTABLE_DIR/.ci-probe" 2> /dev/null || portable_ignore=$?
    if [ "$portable_ignore" -eq 1 ]; then
      echo "ci.sh: portable build dir '$PORTABLE_DIR' is not git-ignored" >&2
      exit 1
    fi
  fi
  echo "==> portable-fallback build ($PORTABLE_DIR)"
  cmake -B "$PORTABLE_DIR" -S . -DIBBE_FORCE_PORTABLE_MUL=ON
  cmake --build "$PORTABLE_DIR" -j"$JOBS"
  IBBE_FORCE_PORTABLE_MUL=1 ctest --test-dir "$PORTABLE_DIR" \
    --output-on-failure -j"$JOBS"
  # The differential strategy-equivalence suite (every G2 scalar-mul
  # strategy against the double-and-add oracle) must hold bit-for-bit under
  # the portable backend too. It already ran inside the full ctest above;
  # run it once more by name so a future filtered ctest invocation cannot
  # silently drop it from the fallback tree.
  echo "==> $PORTABLE_DIR/strategy_equivalence_test (portable backend)"
  IBBE_FORCE_PORTABLE_MUL=1 "$PORTABLE_DIR/strategy_equivalence_test" \
    --gtest_brief=1
else
  echo "ci.sh: no ADX on this CPU; default build already covers the portable path"
fi

# Sanitizer stage: when the toolchain can link ASan+UBSan, build a third tree
# with -DIBBE_SANITIZE=address,undefined and run the suites that exercise the
# fault-injection / crash-recovery machinery (heap-heavy, exception-heavy),
# the parsers of untrusted cloud bytes (fuzz_deserialize_test) and the
# revocation path from the IBBE core through the enclave (ibbe_test,
# edge_cases_test, enclave_test) under instrumentation. Probed rather than
# assumed: minimal containers often ship a compiler without the sanitizer
# runtimes.
san_probe="$(mktemp)"
if echo 'int main() { return 0; }' \
     | c++ -x c++ - -fsanitize=address,undefined -fno-omit-frame-pointer \
           -o "$san_probe" 2> /dev/null; then
  rm -f "$san_probe"
  SAN_DIR="${BUILD_DIR}-asan"
  if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    san_ignore=0
    git check-ignore -q "$SAN_DIR/.ci-probe" 2> /dev/null || san_ignore=$?
    if [ "$san_ignore" -eq 1 ]; then
      echo "ci.sh: sanitizer build dir '$SAN_DIR' is not git-ignored" >&2
      exit 1
    fi
  fi
  echo "==> sanitizer build ($SAN_DIR, address+undefined)"
  cmake -B "$SAN_DIR" -S . -DIBBE_SANITIZE=address,undefined
  cmake --build "$SAN_DIR" -j"$JOBS" --target \
    util_test cloud_test fault_injection_test byzantine_test system_test \
    extensions_test shard_delta_test thread_pool_test \
    parallel_equivalence_test net_test fuzz_deserialize_test \
    ibbe_test edge_cases_test enclave_test
  for suite in util_test cloud_test fault_injection_test byzantine_test \
               system_test extensions_test shard_delta_test thread_pool_test \
               parallel_equivalence_test net_test fuzz_deserialize_test \
               ibbe_test edge_cases_test enclave_test; do
    echo "==> $SAN_DIR/$suite (sanitized)"
    "$SAN_DIR/$suite" --gtest_brief=1
  done
else
  rm -f "$san_probe"
  echo "ci.sh: toolchain lacks ASan/UBSan runtimes; skipping sanitizer stage"
fi

# ThreadSanitizer stage: the Byzantine store wraps every fault decision in a
# mutex and clients race long-polls, gossip publishes, and CAS retries
# against it — exactly the shapes TSan exists to check. The thread-pool
# suites ride along: they hammer the work-stealing scheduler and the lazy
# first-use of the shared crypto singletons (GLV/GLS lattices, comb tables,
# the Montgomery-backend dispatch) from many workers at once. Probed the
# same way as ASan: minimal toolchains often lack the tsan runtime.
tsan_probe="$(mktemp)"
if echo 'int main() { return 0; }' \
     | c++ -x c++ - -fsanitize=thread -fno-omit-frame-pointer \
           -o "$tsan_probe" 2> /dev/null; then
  rm -f "$tsan_probe"
  TSAN_DIR="${BUILD_DIR}-tsan"
  if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    tsan_ignore=0
    git check-ignore -q "$TSAN_DIR/.ci-probe" 2> /dev/null || tsan_ignore=$?
    if [ "$tsan_ignore" -eq 1 ]; then
      echo "ci.sh: tsan build dir '$TSAN_DIR' is not git-ignored" >&2
      exit 1
    fi
  fi
  echo "==> tsan build ($TSAN_DIR, thread)"
  cmake -B "$TSAN_DIR" -S . -DIBBE_SANITIZE=thread
  cmake --build "$TSAN_DIR" -j"$JOBS" --target \
    cloud_test fault_injection_test byzantine_test system_test \
    thread_pool_test parallel_equivalence_test net_test
  for suite in cloud_test fault_injection_test byzantine_test system_test \
               thread_pool_test parallel_equivalence_test net_test; do
    echo "==> $TSAN_DIR/$suite (tsan)"
    "$TSAN_DIR/$suite" --gtest_brief=1
  done
else
  rm -f "$tsan_probe"
  echo "ci.sh: toolchain lacks the TSan runtime; skipping tsan stage"
fi

echo "ci.sh: all stages passed"
