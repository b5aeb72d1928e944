#!/usr/bin/env bash
# One-shot local CI: the checks a change must pass before it lands.
#
#   1. tier-1: default preset build + full ctest suite
#   2. simd label (kernel parity fuzz + LINE vs its reference trainer) on the native
#      dispatch rung, then the full tier-1 suite again with
#      DNSEMBED_FORCE_SCALAR=1 so the scalar fallback stays correct
#   3. projection label (exact row-wise engine, sketched backend, CSR
#      arenas) as its own gate, then the micro_graph smoke over both
#      backends: each must emit a non-trivial similarity graph end to end
#      at smoke scale, and every sketched edge must be an exact edge with
#      the same weight bits (no timing gate)
#   4. micro_line smoke: dispatch must train finite embeddings on both the
#      scalar and the widest rung, the dense ~700k-edge row included, so the
#      packed edge sampler runs on a table larger than L2 (no timing gate at
#      smoke scale)
#   5. distributed label (multi-process supervisor: worker crash/hang/
#      garbage recovery, quarantine, worker-count determinism), then the
#      micro_run smoke: the report and manifest.run (every stage artifact's
#      digest) at workers=1 and workers=4 with an injected crash must be
#      byte-identical to the single-process run
#   5b. observability label — which now includes the distributed supervisor
#      suite, so the sidecar-merge parity and live-status tests run in the
#      multi-worker configuration — then the micro_obs smoke: merged worker
#      counters must equal the single-process totals and every worker task
#      must surface a trace lane (timing gates skipped at smoke scale)
#   5c. scenario label (adversarial suite: zero-day activation, evasion
#      mimicry, IoT profiles, scenario-tag round-trips), then the
#      micro_adversarial smoke: the per-scenario detection gates (clean-AUC
#      regression, zero-day held-out recall, evasion recall floor) must pass
#      at smoke scale
#   5d. serving label (score index round-trips, snapshot-swap retirement,
#      engine/batch score parity, line-protocol server incl. a pipelined
#      burst, and the cli_serve daemon driven over real pipes), then the
#      micro_serve smoke: daemon scores must stay byte-identical to the
#      batch pipeline and snapshot swaps must not fail a single read
#      (latency/throughput gates skipped at smoke scale); the serving
#      label reruns under ASan in step 6
#   6. robustness label (fault injection, loader fuzz, crash recovery)
#      under Address+UB sanitizers — the scenario suite carries the
#      robustness label too, so it reruns sanitized — plus one
#      distributed-label pass under ASan so the fork/waitpid/heartbeat
#      paths run sanitized, and one serving-label pass under ASan so the
#      daemon's stdin parsing into stack buffers runs sanitized
#   7. concurrency label (parallel projection, SVM kernel fill, sharded
#      metrics, loader fuzzers, serve engine) under ThreadSanitizer
#
# Usage: tools/ci_check.sh [--skip-sanitizers]
# Runs from any directory; build trees land in <repo>/build[-asan|-tsan].
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

jobs="$(nproc 2>/dev/null || echo 4)"
skip_sanitizers=0
[[ "${1:-}" == "--skip-sanitizers" ]] && skip_sanitizers=1

step() { printf '\n==== %s ====\n' "$*"; }

step "tier-1: configure + build (default preset)"
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"

step "tier-1: full test suite"
ctest --preset default -j "$jobs"

step "simd label (kernel parity + LINE vs reference trainer)"
ctest --preset default -j "$jobs" -L simd

step "tier-1 suite again with the scalar rung forced"
DNSEMBED_FORCE_SCALAR=1 ctest --preset default -j "$jobs"

step "projection label (exact + sketched engines, CSR arenas)"
ctest --preset default -j "$jobs" -L projection

step "micro_graph smoke (exact and sketched projections end to end)"
DNSEMBED_BENCH_SMOKE=1 DNSEMBED_BENCH_JSON="$(mktemp)" build/bench/micro_graph

step "micro_line smoke (dispatch sanity incl. the dense row, no timing gate)"
DNSEMBED_BENCH_SMOKE=1 DNSEMBED_BENCH_JSON="$(mktemp)" build/bench/micro_line

step "distributed label (supervised runner: crash/hang/garbage, quarantine)"
ctest --preset default -j "$jobs" -L distributed

step "micro_run smoke (worker-count determinism through injected crashes)"
DNSEMBED_BENCH_SMOKE=1 DNSEMBED_BENCH_JSON="$(mktemp)" build/bench/micro_run

step "observability label (incl. sidecar merge + live status in the distributed config)"
ctest --preset default -j "$jobs" -L observability

step "micro_obs smoke (obs overhead + cross-process telemetry parity)"
DNSEMBED_BENCH_SMOKE=1 DNSEMBED_BENCH_JSON="$(mktemp)" build/bench/micro_obs

step "scenario label (adversarial suite: zero-day, evasion, IoT, tags)"
ctest --preset default -j "$jobs" -L scenario

step "micro_adversarial smoke (per-scenario detection gates)"
DNSEMBED_BENCH_SMOKE=1 DNSEMBED_BENCH_JSON="$(mktemp)" build/bench/micro_adversarial

step "serving label (score index, snapshot swap, engine parity, line server)"
ctest --preset default -j "$jobs" -L serving

step "micro_serve smoke (daemon/batch score parity + reload under load)"
DNSEMBED_BENCH_SMOKE=1 DNSEMBED_BENCH_JSON="$(mktemp)" build/bench/micro_serve

if [[ "$skip_sanitizers" == 1 ]]; then
  step "sanitizer passes skipped (--skip-sanitizers)"
  exit 0
fi

step "robustness label under ASan/UBSan"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$jobs"
ctest --preset asan -j "$jobs"

step "distributed label under ASan (fork/waitpid/heartbeat paths sanitized)"
ctest --test-dir build-asan -j "$jobs" -L distributed --output-on-failure

step "serving label under ASan (stdin line parsing, engine, daemon over pipes)"
ctest --test-dir build-asan -j "$jobs" -L serving --output-on-failure

step "concurrency label under TSan"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs"
ctest --preset tsan -j "$jobs"

step "all checks passed"
