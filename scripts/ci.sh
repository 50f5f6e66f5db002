#!/usr/bin/env bash
# The full local CI gate. Run from anywhere; exits nonzero on the first
# failure. Mirrors what a PR must pass:
#
#   1. release build of the whole workspace
#   2. the full test suite (unit, integration, differential, fuzz)
#   3. the in-tree repo lint (unsafe/mmap/opcode containment, signal
#      safety, unwrap policy)
#   4. translation validation end-to-end (PolyBench and the SPEC proxies)
#      + mutation detection, and the instruction-selection edge cases and
#      the guard-fusion differential suite re-run with LB_VERIFY=strict
#      (every JIT compile validated; any finding fails the load)
#   5. elision-regression gate: no PolyBench kernel's static elision
#      ratio may fall below its recorded floor (scripts/elision_floors.tsv)
#   6. profiler smoke: one kernel sampled at 997 Hz, the chrome trace
#      must re-parse and the attribution percentages must sum to ~100
#   7. serving smoke: a short closed-loop serve_bench run; every admitted
#      request must resolve exactly once and the latency histogram must
#      be populated
#   8. A/B smoke: quickperf's plan mode on one Mini kernel, and its
#      engines mode on one Mini kernel. They
#      gate only on exact results: every arm's checksum against native,
#      check counts that repeat across two compiles, a record that
#      re-parses with every header field, and (engines) all three tables
#      -- Fig. 1, Fig. 2a, section 4.4 -- printed. They assert no timing.
#      They run in target/ab-smoke so the committed BENCH_plan.json and
#      BENCH_engines.json are left alone.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release --workspace
run cargo test -q --workspace
run cargo test -q -p lb-analysis --test repo_lint
run cargo test -q --test verify_e2e
run cargo test -q --test verify_mutation
run env LB_VERIFY=strict cargo test -q --test isel_differential
run env LB_VERIFY=strict cargo test -q --test guardopt_differential
run cargo run --release -p lb-bench --bin analysis_report -- \
  --check scripts/elision_floors.tsv
run env LB_PROF=sample:997 LB_PROF_OUT=target/prof-smoke \
  cargo run --release -p lb-bench --bin prof_report -- --smoke
run cargo run --release -p lb-bench --bin serve_bench -- --smoke true
mkdir -p target/ab-smoke
(cd target/ab-smoke && run ../release/quickperf plan --dataset mini --bench trisolv)
(cd target/ab-smoke && run ../release/quickperf engines --dataset mini --bench atax) |
  tee target/ab-smoke/engines.txt
for table in "Figure 1:" "Figure 2a" "Section 4.4"; do
  grep -q "^$table" target/ab-smoke/engines.txt || {
    echo "quickperf engines printed no \"$table\" table" >&2
    exit 1
  }
done

echo "==> ci.sh: all gates passed"
