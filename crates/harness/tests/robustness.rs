//! Crash-proof-harness integration tests: injected OS-boundary failures
//! must become per-run `RunOutcome::Failed` records (or be absorbed by
//! fallback/retry) — never panics, aborts, or deadlocks.
//!
//! These live in their own integration binary (separate process) so the
//! process-global chaos plan cannot interfere with unrelated unit tests;
//! within the binary, every test holding a `ChaosGuard` is serialized by
//! the guard's install lock.

use lb_core::BoundsStrategy;
use lb_harness::{run_benchmark_checked, EngineSel, RunOutcome, RunSpec, RunStage};
use lb_polybench::{by_name, common::Dataset};
use std::time::Duration;

fn quick_spec(engine: EngineSel, strategy: BoundsStrategy) -> RunSpec {
    RunSpec {
        engine,
        strategy,
        iterations: 3,
        reserve_bytes: 64 << 20,
        max_pages: 512,
        sample_system: false,
        timeout: Some(Duration::from_secs(120)),
        retries: 0,
    }
}

#[test]
fn injected_failure_becomes_failed_record_and_campaign_continues() {
    let guard = lb_chaos::install("core.mmap.reserve:EPERM").unwrap();
    // A whole mini-campaign under a persistent fault: every run fails
    // cleanly at the probe stage, none panics, the loop reaches the end.
    for name in ["gemm", "atax", "trisolv"] {
        let b = by_name(name, Dataset::Mini).unwrap();
        let spec = quick_spec(EngineSel::Interp, BoundsStrategy::Mprotect);
        match run_benchmark_checked(&b, &spec) {
            RunOutcome::Failed(f) => {
                assert_eq!(f.stage, RunStage::Probe, "{name}: {f}");
                assert!(f.error.contains("reservation"), "{name}: {}", f.error);
            }
            RunOutcome::Completed(_) => panic!("{name}: must fail under injected EPERM"),
        }
    }
    drop(guard);
    // With the fault gone the same spec completes. It runs under an empty
    // plan, holding the install lock: unguarded, its mmaps would consume
    // the `nth` count of a plan another test has armed meanwhile.
    let _quiet = lb_chaos::install("").unwrap();
    let b = by_name("gemm", Dataset::Mini).unwrap();
    let spec = quick_spec(EngineSel::Interp, BoundsStrategy::Mprotect);
    let r = run_benchmark_checked(&b, &spec);
    assert!(r.completed().is_some_and(|r| r.checksum_ok));
}

#[test]
fn one_shot_injection_is_absorbed_by_retry() {
    let _guard = lb_chaos::install("core.mmap.reserve:1:EIO").unwrap();
    let before = lb_telemetry::snapshot();
    let b = by_name("atax", Dataset::Mini).unwrap();
    let mut spec = quick_spec(EngineSel::Interp, BoundsStrategy::Trap);
    spec.retries = 1;
    match run_benchmark_checked(&b, &spec) {
        RunOutcome::Completed(r) => assert!(r.checksum_ok),
        RunOutcome::Failed(f) => panic!("retry must absorb a one-shot fault: {f}"),
    }
    let delta = lb_telemetry::snapshot().delta_since(&before);
    assert_eq!(delta.counter("harness.run.retry"), 1);
}

#[test]
fn instantiate_fault_surfaces_as_instantiate_stage() {
    // The probe consumes check #1 and the first isolate check #2; check
    // #3 fires in the second iteration's instantiation.
    let _guard = lb_chaos::install("core.mmap.reserve:3:ENOMEM").unwrap();
    let b = by_name("trisolv", Dataset::Mini).unwrap();
    let spec = quick_spec(EngineSel::Wavm, BoundsStrategy::Trap);
    match run_benchmark_checked(&b, &spec) {
        RunOutcome::Failed(f) => assert_eq!(f.stage, RunStage::Instantiate, "{f}"),
        RunOutcome::Completed(_) => panic!("injected instantiate fault must surface"),
    }
}

#[test]
fn uffd_setup_failure_falls_back_to_mprotect_end_to_end() {
    // The acceptance scenario: a Uffd-configured run in an environment
    // where uffd setup fails (here, forced by injection into the
    // per-memory `UFFDIO_REGISTER`, since the shared userfaultfd is
    // created once per process; in a locked-down container, for real)
    // completes via the Mprotect fallback with validating checksums and
    // the degradation on record.
    let _guard = lb_chaos::install("core.uffd.register:1:EPERM").unwrap();
    let b = by_name("gemm", Dataset::Mini).unwrap();
    let spec = quick_spec(EngineSel::Wavm, BoundsStrategy::Uffd);
    match run_benchmark_checked(&b, &spec) {
        RunOutcome::Completed(r) => {
            assert_eq!(r.effective_strategy, BoundsStrategy::Mprotect);
            assert!(r.checksum_ok, "fallback run must still validate");
            assert_eq!(
                r.telemetry.counter("core.strategy.fallback"),
                1,
                "exactly one degradation: the run-level probe"
            );
            assert!(r.vm.mprotect > 0, "mprotect fallback must issue mprotect");
        }
        RunOutcome::Failed(f) => panic!("fallback chain must rescue the run: {f}"),
    }
}
