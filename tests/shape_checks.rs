//! Shape checks: the paper's qualitative claims, asserted with generous
//! tolerances so they hold on any host. Comparisons are restricted to
//! JIT-generated code vs JIT-generated code (unaffected by debug-mode host
//! compilation) or to syscall counts, which are exact.
//!
//! Every test holds `common::process_lock()`: the timings must not share
//! the host's cores with a sibling test's kernels, and the syscall counts
//! are process-wide deltas that a sibling's instantiations would move.

mod common;

use leaps_and_bounds::core::exec::{Engine, Linker};
use leaps_and_bounds::core::{catch_traps, stats, BoundsStrategy, MemoryConfig, WASM_PAGE};
use leaps_and_bounds::harness::stats::{interleave, paired, Arm};
use leaps_and_bounds::interp::InterpEngine;
use leaps_and_bounds::jit::{JitEngine, JitProfile};
use leaps_and_bounds::polybench::{by_name, Dataset};
use std::time::{Duration, Instant};

/// Kernel time for each `(engine, strategy)` run, from
/// `lb_harness::stats`' interleaved, shuffled rounds: the first run's
/// median time scaled by each run's median per-round ratio to it.
fn kernel_times(
    module: &leaps_and_bounds::wasm::Module,
    runs: &[(&dyn Engine, BoundsStrategy)],
) -> Vec<Duration> {
    let mut arms: Vec<Arm> = runs
        .iter()
        .map(|&(engine, s)| {
            let loaded = engine.load(module).unwrap();
            let config = MemoryConfig::new(s, 0, 512).with_reserve(256 << 20);
            let mut inst = loaded.instantiate(&config, &Linker::new()).unwrap();
            inst.invoke("init", &[]).unwrap();
            Box::new(move || {
                inst.invoke("kernel", &[]).unwrap();
            }) as Arm
        })
        .collect();
    paired(&interleave(&mut arms))
        .iter()
        .map(|e| Duration::from_secs_f64(e.secs))
        .collect()
}

/// Paper §4.1: "Software checks are significantly slower in a number of
/// configurations, most notably in WAVM, with clamping addresses
/// unconditionally behaving worse than generating conditional traps."
///
/// Measured with the static bounds-check analysis *off*: the claim is
/// about the cost of the emitted checks themselves, and `lb-analysis` now
/// elides most of them on PolyBench (see
/// `analysis_closes_the_software_check_gap_on_gemm`).
#[test]
fn software_checks_cost_more_than_guard_pages_on_gemm() {
    let _serial = common::process_lock();
    let bench = by_name("gemm", Dataset::Small).unwrap();
    let engine = JitEngine::new(JitProfile::wavm().with_analysis(false));
    let [none, clamp, trap, mprotect] = kernel_times(
        &bench.module,
        &[
            (&engine, BoundsStrategy::None),
            (&engine, BoundsStrategy::Clamp),
            (&engine, BoundsStrategy::Trap),
            (&engine, BoundsStrategy::Mprotect),
        ],
    )[..] else {
        unreachable!()
    };

    // Guard pages ≈ none (paper: 1-2 percentage points; allow 15%).
    assert!(
        mprotect < none.mul_f64(1.15),
        "mprotect {mprotect:?} should be near none {none:?}"
    );
    // Software clamp visibly slower than none on a load-heavy kernel.
    assert!(
        clamp > none.mul_f64(1.10),
        "clamp {clamp:?} should exceed none {none:?}"
    );
    // Clamp worse than trap (the paper's WAVM observation).
    assert!(
        clamp > trap.mul_f64(0.95),
        "clamp {clamp:?} should not beat trap {trap:?}"
    );
}

/// The flip side: with `lb-analysis` consuming its plan, most of gemm's
/// checks are proven in-bounds and the software-check strategies land
/// close to unchecked code.
#[test]
fn analysis_closes_the_software_check_gap_on_gemm() {
    let _serial = common::process_lock();
    let bench = by_name("gemm", Dataset::Small).unwrap();
    let engine = JitEngine::new(JitProfile::wavm());
    let [none, trap] = kernel_times(
        &bench.module,
        &[
            (&engine, BoundsStrategy::None),
            (&engine, BoundsStrategy::Trap),
        ],
    )[..] else {
        unreachable!()
    };
    assert!(
        trap < none.mul_f64(1.10),
        "trap with analysis {trap:?} should be near none {none:?}"
    );
}

/// Paper §4.4 (Titzer): the interpreter is several times slower than the
/// tiered JIT.
#[test]
fn interpreter_is_many_times_slower_than_jit() {
    let _serial = common::process_lock();
    let bench = by_name("atax", Dataset::Small).unwrap();
    let jit = JitEngine::new(JitProfile::wavm());
    let interp = InterpEngine::new();
    let [t_jit, t_int] = kernel_times(
        &bench.module,
        &[
            (&jit, BoundsStrategy::Mprotect),
            (&interp, BoundsStrategy::Mprotect),
        ],
    )[..] else {
        unreachable!()
    };
    assert!(
        t_int > t_jit * 3,
        "interp {t_int:?} should be several times slower than jit {t_jit:?}"
    );
}

/// Paper §3.1/§4.2.1: strategy-specific syscall behavior, exactly counted.
#[test]
fn strategies_issue_the_expected_syscalls() {
    let _serial = common::process_lock();
    let bench = by_name("trisolv", Dataset::Mini).unwrap();
    let engine = JitEngine::new(JitProfile::wasmtime());
    let loaded = engine.load(&bench.module).unwrap();

    let churn = |s: BoundsStrategy| {
        let config = MemoryConfig::new(s, 0, 64).with_reserve(16 << 20);
        let before = stats::snapshot();
        for _ in 0..10 {
            let mut inst = loaded.instantiate(&config, &Linker::new()).unwrap();
            inst.invoke("init", &[]).unwrap();
            inst.invoke("kernel", &[]).unwrap();
        }
        stats::snapshot().delta(&before)
    };

    let mp = churn(BoundsStrategy::Mprotect);
    assert!(
        mp.mprotect >= 10,
        "one mprotect per isolate: {}",
        mp.mprotect
    );
    assert_eq!(mp.uffd_zeropage, 0);

    let tr = churn(BoundsStrategy::Trap);
    assert_eq!(tr.mprotect, 0, "software checks need no mprotect");

    if leaps_and_bounds::core::uffd::sigbus_mode_available() {
        let uf = churn(BoundsStrategy::Uffd);
        assert_eq!(uf.mprotect, 0, "uffd must not call mprotect");
        assert_eq!(
            uf.uffd_zeropage, 0,
            "init and kernel touch only the unregistered initial memory"
        );
        assert!(uf.uffd_register >= 10, "one register per fresh isolate");

        // Grown memory lies in the registered tail: growing makes no
        // syscall, and the handler serves the first touch of a grown page.
        let config = MemoryConfig::new(BoundsStrategy::Uffd, 0, 64).with_reserve(16 << 20);
        let inst = loaded.instantiate(&config, &Linker::new()).unwrap();
        let mem = inst.memory().expect("trisolv declares a memory");
        let before = stats::snapshot();
        let grown = mem.grow(1).expect("grow") * WASM_PAGE as u32;
        catch_traps(|| mem.store::<u8>(grown, 0, 1)).expect("grown page is served");
        let d = stats::snapshot().delta(&before);
        assert_eq!((d.mprotect, d.uffd_register), (0, 0));
        assert!(d.uffd_zeropage >= 1, "the handler serves grown pages");
    }

    // Every strategy churns one reservation per isolate.
    assert!(mp.mmap >= 10 && tr.mmap >= 10);
}

/// The V8 profile's background machinery exists: tier-up changes the code
/// executing behind a long-lived instance without breaking it.
#[test]
fn v8_profile_survives_concurrent_tier_up() {
    let _serial = common::process_lock();
    let bench = by_name("bicg", Dataset::Mini).unwrap();
    let expected = bench.native_checksum();
    let engine = JitEngine::new(JitProfile::v8());
    let loaded = engine.load(&bench.module).unwrap();
    let config = MemoryConfig::new(BoundsStrategy::Mprotect, 0, 64).with_reserve(16 << 20);
    let mut inst = loaded.instantiate(&config, &Linker::new()).unwrap();
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(150) {
        inst.invoke("init", &[]).unwrap();
        inst.invoke("kernel", &[]).unwrap();
        let cs = inst
            .invoke("checksum", &[])
            .unwrap()
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(cs.to_bits(), expected.to_bits());
    }
}
