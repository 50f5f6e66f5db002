//! Signal-coexistence stress for the sampling profiler.
//!
//! The profiler's SIGPROF handler has to run concurrently with the
//! runtime's own signal traffic — SIGBUS/userfaultfd fault service on
//! the uffd strategy, SIGSEGV guard-page traps — and with chaos-injected
//! mprotect failures on the grow path. The test's primary assertion is
//! that it *finishes*: no deadlock between handlers, no crash from a
//! sample landing mid-fault-service. On top of that we check the sample
//! accounting is bounded (every handler hit is either drained, counted
//! dropped, or counted incomplete — nothing silently lost) and that the
//! timer is fully disarmed afterwards so later tests are unaffected.

mod common;

use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig, WASM_PAGE};
use lb_harness::{run_benchmark_checked, EngineSel, Isolate, RunOutcome, RunSpec};
use lb_polybench::{by_name, common::Dataset};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// JIT workers that run isolates beside the checked run, so four threads
/// execute JIT code under SIGPROF at once.
const SIDE_WORKERS: usize = 3;

fn spec(strategy: BoundsStrategy) -> RunSpec {
    let mut s = RunSpec::new(EngineSel::Wavm, strategy);
    s.iterations = 41;
    s.reserve_bytes = 64 << 20;
    s.max_pages = 512;
    s.timeout = Some(Duration::from_secs(120));
    s.retries = 2;
    s
}

#[test]
fn profiler_coexists_with_fault_service_and_chaos() {
    let _serial = common::process_lock();
    lb_prof::set_sampling(4000);
    let bench = by_name("gemm", Dataset::Small).expect("gemm");

    // Phase 1: uffd strategy with SIGPROF firing at 4 kHz. Must complete
    // correctly. Side workers run gemm isolates beside the checked run.
    // gemm touches only its initial memory, which is plain memory under
    // uffd too, so one more thread keeps the SIGBUS fault servicer busy
    // on grown pages for the whole run.
    let spec = spec(BoundsStrategy::Uffd);
    let engine = spec.engine.engine().expect("wavm is a wasm engine");
    let module = engine.load(&bench.module).expect("load");
    let isolate = Isolate::Wasm(
        &*module,
        MemoryConfig::new(spec.strategy, 0, spec.max_pages).with_reserve(spec.reserve_bytes),
    );
    let before = lb_telemetry::snapshot();
    let done = AtomicBool::new(false);
    let outcome = std::thread::scope(|s| {
        for _ in 0..SIDE_WORKERS {
            s.spawn(|| {
                lb_prof::ensure_thread();
                while !done.load(Ordering::Relaxed) {
                    isolate.iteration(false).expect("side isolate iteration");
                }
            });
        }
        s.spawn(|| {
            lb_prof::ensure_thread();
            let cfg = MemoryConfig::new(BoundsStrategy::Uffd, 1, 64).with_reserve(16 << 20);
            loop {
                let m = LinearMemory::new(&cfg).expect("memory");
                let grown = m.grow(16).expect("grow") * WASM_PAGE as u32;
                lb_core::catch_traps(|| {
                    (grown..grown + 16 * WASM_PAGE as u32)
                        .step_by(4096)
                        .try_for_each(|a| m.store::<u8>(a, 0, 1))
                })
                .expect("grown pages are served");
                if done.load(Ordering::Relaxed) {
                    break;
                }
            }
        });
        let outcome = run_benchmark_checked(&bench, &spec);
        done.store(true, Ordering::Relaxed);
        outcome
    });
    let delta = lb_telemetry::snapshot().delta_since(&before);
    let taken = delta.counter("prof.samples.taken");
    assert!(
        delta.counter("uffd.batch_pages") > 0,
        "the SIGBUS handler must have served grown pages"
    );
    let r = match outcome {
        RunOutcome::Completed(r) => r,
        RunOutcome::Failed(f) => panic!("uffd run must survive profiling: {f}"),
    };
    assert!(r.checksum_ok, "profiling must not corrupt results");
    let report = r.prof.as_ref().expect("profiler session ran");
    // Bounded loss: the handler-hit counter can only exceed what this
    // session accounted for by hits from the retry path's earlier
    // sessions — it can never be *less* than what we drained.
    let accounted = report.total + report.dropped + report.incomplete;
    assert!(
        taken >= report.total,
        "drained {} samples but the handler only ran {taken} times",
        report.total
    );
    assert!(
        accounted <= taken,
        "accounted {accounted} samples exceeds {taken} handler hits"
    );

    // Phase 2: hammer the mprotect grow path directly — the PolyBench
    // kernels never execute `memory.grow`, so this is the only way to
    // put SIGPROF on top of grow-time mprotect failures. One in five
    // grow calls gets an injected ENOMEM; each must surface as a clean
    // `None` (wasm -1), never a wedge or crash, while the profiler keeps
    // sampling the grow workers.
    let before = lb_telemetry::snapshot();
    let session = lb_prof::start().expect("session for grow stress");
    let chaos = lb_chaos::install("core.mprotect.grow:rate=0.2:ENOMEM;seed=11").expect("plan");
    let cfg = MemoryConfig {
        strategy: BoundsStrategy::Mprotect,
        initial_pages: 1,
        max_pages: 64,
        reserve_bytes: 16 << 20,
    };
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                lb_prof::ensure_thread();
                for _ in 0..50 {
                    let m = LinearMemory::new(&cfg).expect("memory");
                    for _ in 0..20 {
                        // Some(..) or a chaos-injected None: both fine.
                        let _ = m.grow(1);
                    }
                }
            });
        }
    });
    drop(chaos);
    let grow_report = lb_prof::resolve_profile(session.stop());
    let delta = lb_telemetry::snapshot().delta_since(&before);
    assert!(
        delta.counter("chaos.fired.core.mprotect.grow") > 0,
        "the chaos plan never fired — grow path not exercised"
    );
    // The successful grows must have recorded their mprotect latency
    // spans even with the profiler interrupting the path.
    let drained = lb_telemetry::snapshot_and_drain();
    assert!(
        !drained.spans_named("mem.protect_grow").is_empty(),
        "no mem.protect_grow spans recorded under chaos + profiling"
    );
    let _ = grow_report;

    // The sampler must be fully disarmed between sessions: a fresh
    // session starts (nothing left holding the ACTIVE latch) and the
    // process-wide timer reads back zeroed after stop.
    let session = lb_prof::start().expect("fresh session after stress");
    let _ = lb_prof::resolve_profile(session.stop());
    lb_prof::set_sampling(0);
    unsafe {
        let mut cur: libc::itimerval = std::mem::zeroed();
        assert_eq!(libc::getitimer(libc::ITIMER_PROF, &mut cur), 0);
        assert_eq!(cur.it_value.tv_sec, 0);
        assert_eq!(cur.it_value.tv_usec, 0);
    }
}
