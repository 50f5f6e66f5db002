#!/usr/bin/env bash
# The full local CI gate. Run from anywhere; exits nonzero on the first
# failure. Mirrors what a PR must pass:
#
#   1. release build of the whole workspace
#   2. the full test suite (unit, integration, differential, fuzz)
#   3. clippy over every target of every crate -- lb-core (the runtime's
#      unsafe memory and signal layer), lb-serve, lb-chaos, lb-sys,
#      lb-telemetry, lb-bench, lb-harness, lb-sim, lb-analysis, lb-prof,
#      lb-jit, lb-spec-proxy, lb-interp, lb-isa-model, lb-wasm, lb-dsl,
#      lb-polybench, lb-verify and the root package; any warning fails
#   4. the in-tree repo lint (unsafe/mmap/opcode containment, signal
#      safety, unwrap policy)
#   5. translation validation end-to-end (PolyBench and the SPEC proxies)
#      + mutation detection, and the instruction-selection edge cases and
#      the guard-fusion differential suite re-run with LB_VERIFY=strict
#      (every JIT compile validated; any finding fails the load)
#   6. elision-regression gate: no PolyBench kernel's static elision
#      ratio may fall below its recorded floor (scripts/elision_floors.tsv)
#   7. profiler smoke: one kernel sampled at 997 Hz, the chrome trace
#      must re-parse and the attribution percentages must sum to ~100
#   8. serving smoke: a short closed-loop `serve_bench smoke` run; every admitted
#      request must resolve exactly once and the latency histogram must
#      be populated
#   9. scaling smoke: `fig3 --dataset mini`, which calibrates the
#      mm-contention simulator with one interleaved isolate measurement;
#      gated on its exit status only
#  10. A/B smoke: quickperf's plan mode on one Mini kernel, its engines
#      mode on one Mini kernel, and its pool mode at Mini. They
#      gate only on exact results: every arm's checksum against native,
#      check counts that repeat across two compiles, a record that
#      re-parses with every header field, (engines) all three tables
#      -- Fig. 1, Fig. 2a, section 4.4 -- printed, and (pool) pooled cells
#      that serve two memory shapes with no mmap and no pool miss, and
#      uffd fault service of exactly the grown pages. They assert no
#      timing. They run in target/ab-smoke so the committed
#      BENCH_plan.json, BENCH_engines.json and BENCH_pool.json are left
#      alone.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release --workspace
run cargo test -q --workspace
run cargo clippy -q -p lb-core -p lb-serve -p lb-chaos -p lb-sys -p lb-telemetry \
  -p lb-bench -p lb-harness -p lb-sim -p lb-analysis -p lb-prof -p lb-jit \
  -p lb-spec-proxy -p lb-interp -p lb-isa-model -p lb-wasm -p lb-dsl \
  -p lb-polybench -p lb-verify -p leaps-and-bounds --all-targets --no-deps \
  -- -D warnings
run cargo test -q -p lb-analysis --test repo_lint
run cargo test -q --test verify_e2e
run cargo test -q --test verify_mutation
run env LB_VERIFY=strict cargo test -q --test isel_differential
run env LB_VERIFY=strict cargo test -q --test guardopt_differential
run cargo run --release -p lb-bench --bin analysis_report -- \
  --check scripts/elision_floors.tsv
run env LB_PROF=sample:997 LB_PROF_OUT=target/prof-smoke \
  cargo run --release -p lb-bench --bin prof_report -- --smoke
run cargo run --release -p lb-bench --bin serve_bench -- smoke
run cargo run --release -p lb-bench --bin fig3 -- --dataset mini
mkdir -p target/ab-smoke
(cd target/ab-smoke && run ../release/quickperf plan --dataset mini --bench trisolv)
(cd target/ab-smoke && run ../release/quickperf pool --dataset mini)
(cd target/ab-smoke && run ../release/quickperf engines --dataset mini --bench atax) |
  tee target/ab-smoke/engines.txt
for table in "Figure 1:" "Figure 2a" "Section 4.4"; do
  grep -q "^$table" target/ab-smoke/engines.txt || {
    echo "quickperf engines printed no \"$table\" table" >&2
    exit 1
  }
done

echo "==> ci.sh: all gates passed"
