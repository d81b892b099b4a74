#!/usr/bin/env bash
# Full local gate: the tier-1 build + test pass, a ThreadSanitizer build
# that runs the parallel-engine tests (par_test), the fault-containment
# suite (fault_test — injected faults + retries under 4 threads), the
# durable-run suite (run_test — journal replay, cancellation, kill-resume)
# and the flow-level tests that exercise it (cache_test, core_test — now
# including the SOCS-mode flows), an AddressSanitizer build over the
# litho/SOCS/cache/core/fault tests, and the crash-recovery gate
# (scripts/crash_recovery.sh — SIGKILL a journaled run mid-flow, resume at
# 1 and 4 threads, assert the annotated worst slack is bit-identical).  The TSan step is what keeps the
# determinism contract honest —
# slot writes and the work-stealing queues must be race-free, not just
# produce the right answer on one scheduling.  The ASan step covers the
# imaging scratch-buffer reuse and the kernel/pupil cache lifetimes.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== step 1/5: regular build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== step 2/5: full test suite =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== step 3/5: TSan build + race tests (par_test, fault_test, run_test, cache_test, socs_test, core_test, sta_incremental_test, determinism_test[batched]) =="
cmake -B build-tsan -S . -DPOC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target par_test fault_test run_test cache_test socs_test core_test sta_incremental_test determinism_test
./build-tsan/tests/par_test
# Fault containment on the batched default path, FaultFlowBatch first: a
# chunk's windows are computed together on one worker, one fault lane
# each, so the lanes' result slots must be race-free as well as
# bit-identical to width 1.
./build-tsan/tests/fault_test --gtest_filter='FaultFlowBatch.*'
./build-tsan/tests/fault_test --gtest_filter='-FaultFlowBatch.*'
# Death tests fork; TSan dislikes forking multithreaded processes, and the
# SIGKILL kill-resume path is already covered by step 2 and step 5.
./build-tsan/tests/run_test --gtest_filter='-*Killed*'
./build-tsan/tests/cache_test
./build-tsan/tests/socs_test
./build-tsan/tests/core_test
# Batched-vs-width-1 determinism at 1 and 4 threads: a chunk's windows
# (one owning worker, no locks) must be race-free, and every batch width
# must reproduce the width-1 flow bit for bit — including the job-sized
# auto width on small extract subsets and the batched hotspot scan (same
# reports, same ORC cache counters).
./build-tsan/tests/determinism_test --gtest_filter='DeterminismBatch*:DeterminismSocs*'
# The incremental-STA equivalence fuzz harness: its 4-thread legs drive the
# TimingGraph per-level parallel evaluation, so TSan checks the disjoint-
# slot write contract while the asserts check bit-identity.
./build-tsan/tests/sta_incremental_test

echo "== step 4/5: ASan build + memory tests (litho_test, fault_test, socs_test, cache_test, core_test, batch_test) =="
cmake -B build-asan -S . -DPOC_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" --target litho_test fault_test socs_test cache_test core_test batch_test
./build-asan/tests/litho_test
./build-asan/tests/fault_test
./build-asan/tests/socs_test
./build-asan/tests/cache_test
./build-asan/tests/core_test
# The SoA engine's arena reuse + the warm-loop zero-allocation probe (the
# probe's operator-new override forwards to malloc, which ASan intercepts).
./build-asan/tests/batch_test

echo "== step 5/5: crash-recovery gate (SIGKILL + resume, bit-identical WS) =="
cmake --build build -j "$JOBS" --target resumable_flow
scripts/crash_recovery.sh build

echo "== check.sh: all green =="
