//! Attribution-correctness test for the sampling profiler (lb-prof).
//!
//! The profiler's whole point is telling bounds-check time apart from
//! compute time, so the one thing it must get right is *direction*: a
//! JIT configuration that emits every guard must show at least as much
//! guard self-time as one that elides them all. We run the same kernel
//! under the wasmtime profile with analysis-driven elision disabled and
//! enabled and compare `guard_pct_resolved`.
//!
//! Sampling is statistical, so the assertions are gated on a minimum
//! resolved-sample count and allow slack; the accounting invariants
//! (every sample lands in exactly one bucket, unresolved is counted, not
//! discarded) are asserted unconditionally.

mod common;

use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use lb_polybench::{by_name, common::Dataset};
use std::time::{Duration, Instant};

/// Run gemm for ~half a second under one JIT configuration with the
/// profiler attached, and resolve the profile.
fn profile_run(analysis: bool) -> lb_prof::ProfReport {
    // Enable sampling *before* `load`: code regions register with the
    // profiler at publish time only while it is enabled.
    lb_prof::set_sampling(4000);
    let bench = by_name("gemm", Dataset::Small).expect("gemm");
    let engine = JitEngine::new(JitProfile::wasmtime().with_analysis(analysis));
    let loaded = engine.load(&bench.module).expect("load");
    let config = MemoryConfig {
        strategy: BoundsStrategy::Trap,
        initial_pages: 0,
        max_pages: 512,
        reserve_bytes: 64 << 20,
    };
    let linker = Linker::new();
    let session = lb_prof::start().expect("profiler session");
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(500) {
        let mut inst = loaded.instantiate(&config, &linker).expect("instantiate");
        inst.invoke("init", &[]).expect("init");
        inst.invoke("kernel", &[]).expect("kernel");
    }
    let report = lb_prof::resolve_profile(session.stop());
    lb_prof::set_sampling(0);
    report
}

#[test]
fn guard_attribution_tracks_check_elision() {
    let _serial = common::process_lock();
    let with_checks = profile_run(false);
    let elided = profile_run(true);

    // Accounting invariants hold regardless of sample counts: the class
    // buckets partition the samples, and every sample either resolved to
    // a region or was counted unresolved — none vanish.
    for (name, r) in [("with_checks", &with_checks), ("elided", &elided)] {
        let sum: u64 = r.class_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(sum, r.total, "{name}: class buckets must partition samples");
        assert_eq!(r.samples.len() as u64, r.total, "{name}");
        assert!(r.resolved() + r.unresolved == r.total, "{name}");
    }

    // Direction assertions need signal. Container CPU limits or a
    // low-resolution ITIMER can starve the sampler; skip (loudly)
    // rather than flake.
    const MIN_RESOLVED: u64 = 50;
    if with_checks.resolved() < MIN_RESOLVED || elided.resolved() < MIN_RESOLVED {
        eprintln!(
            "skipping direction assertions: too few resolved samples \
             (with_checks {}, elided {})",
            with_checks.resolved(),
            elided.resolved()
        );
        return;
    }

    // Full elision leaves (almost) no guard instructions to sample: the
    // acceptance bound is ≤2% self-time, asserted with slack for the
    // odd mid-sequence misclassification.
    assert!(
        elided.guard_pct_resolved() <= 5.0,
        "elided kernel shows {:.2}% guard self-time ({} of {} resolved)",
        elided.guard_pct_resolved(),
        elided.guard,
        elided.resolved()
    );
    // And emitting every check can only move guard time up.
    assert!(
        with_checks.guard_pct_resolved() >= elided.guard_pct_resolved() - 0.5,
        "guard self-time went the wrong way: {:.2}% with checks vs {:.2}% elided",
        with_checks.guard_pct_resolved(),
        elided.guard_pct_resolved()
    );
}

/// Run the dynamic-bound store loop for ~1.5 s with the profiler
/// attached. Its loop bound is a parameter, so *static* elision can never
/// remove the per-store guard — only the hoisted preheader guard can.
///
/// The sampling timer fires at most once per kernel tick (250 Hz on a
/// `CONFIG_HZ=250` kernel), and a fused guard is only a compare and a
/// branch, ~14% of the checked loop's samples. Half a second gave ~120
/// resolved samples, and the guard's share could read as low as 3%;
/// three times the window keeps the sampling error well inside the
/// asserted 5 points.
fn profile_hoist_run(hoisting: bool) -> lb_prof::ProfReport {
    lb_prof::set_sampling(4000);
    let m = common::dynamic_bound_module();
    let engine = JitEngine::new(JitProfile::wavm().with_hoisting(hoisting));
    let loaded = engine.load(&m).expect("load");
    let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 1).with_reserve(1 << 22);
    let linker = Linker::new();
    let mut inst = loaded.instantiate(&config, &linker).expect("instantiate");
    let session = lb_prof::start().expect("profiler session");
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(1500) {
        inst.invoke("go", &[lb_wasm::Value::I32(common::MAX_N)])
            .expect("go stays in bounds");
    }
    let report = lb_prof::resolve_profile(session.stop());
    lb_prof::set_sampling(0);
    report
}

/// Hoisting moves the bounds check out of the loop: guard self-time on a
/// kernel whose checks static analysis *cannot* remove must measurably
/// drop when the loop is versioned behind a preheader guard.
#[test]
fn guard_self_time_drops_with_hoisting() {
    let _serial = common::process_lock();
    let checked = profile_hoist_run(false);
    let hoisted = profile_hoist_run(true);

    for (name, r) in [("checked", &checked), ("hoisted", &hoisted)] {
        let sum: u64 = r.class_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(sum, r.total, "{name}: class buckets must partition samples");
        assert!(r.resolved() + r.unresolved == r.total, "{name}");
    }

    const MIN_RESOLVED: u64 = 50;
    if checked.resolved() < MIN_RESOLVED || hoisted.resolved() < MIN_RESOLVED {
        eprintln!(
            "skipping direction assertions: too few resolved samples \
             (checked {}, hoisted {})",
            checked.resolved(),
            hoisted.resolved()
        );
        return;
    }

    // The versioned fast body is check-free; the preheader guard runs
    // once per call, which is statistically invisible.
    assert!(
        hoisted.guard_pct_resolved() <= 5.0,
        "hoisted kernel shows {:.2}% guard self-time ({} of {} resolved)",
        hoisted.guard_pct_resolved(),
        hoisted.guard,
        hoisted.resolved()
    );
    // Per-store guards dominate a 4-instruction loop body: the drop must
    // be real signal, not slack.
    assert!(
        checked.guard_pct_resolved() >= hoisted.guard_pct_resolved() + 5.0,
        "guard self-time did not drop with hoisting: {:.2}% checked vs {:.2}% hoisted",
        checked.guard_pct_resolved(),
        hoisted.guard_pct_resolved()
    );
}

/// Fused guards (`Full` tier with guard fusion) compare the index
/// directly against the per-extent limit table — no address-setup `lea`
/// precedes them — yet the profiler's classifier must still bucket the
/// compare *and* its `jae` as GuardCompare, so fused checks keep showing
/// up as bounds-check time rather than leaking into Compute.
/// Deterministic: classifies real emitted code, no sampling involved.
#[test]
fn fused_guards_classify_as_guard_compare() {
    use lb_jit::codegen::{compile_function, CompileParams, OptLevel};
    use lb_verify::decode::decode_all;
    use lb_verify::isa::{Cc, Inst, Reg, W};
    use lb_verify::InstClass;

    let module = common::rmw_module();
    let meta = lb_wasm::validate(&module).expect("module validates");
    let extents = lb_jit::dataflow::module_extents(&module);
    let code = compile_function(
        CompileParams {
            module: &module,
            metas: &meta.funcs,
            strategy: BoundsStrategy::Trap,
            opt: OptLevel::Full,
            safepoints: false,
            funcptrs_base: 0,
            plans: None,
            guardopt: true,
            limit_extents: &extents,
        },
        0,
    );
    let classes = lb_verify::classify_function(&code, 8).expect("emitted code classifies");
    let insts = decode_all(&code).expect("emitted code decodes");
    assert_eq!(classes.len(), insts.len());

    let mut fused_cmps = 0;
    for (i, ((_, inst), cl)) in insts.iter().zip(&classes).enumerate() {
        let is_limit_cmp = matches!(
            inst,
            Inst::CmpRm { w: W::W64, m, .. }
                if m.base == Reg::R15
                    && m.index.is_none()
                    && (64..128).contains(&m.disp)
                    && (m.disp - 64) % 8 == 0
        );
        if !is_limit_cmp {
            continue;
        }
        fused_cmps += 1;
        assert_eq!(
            cl.class,
            InstClass::GuardCompare,
            "fused limit compare at offset {} must attribute as a guard",
            cl.offset
        );
        let next = &classes[i + 1];
        assert!(
            matches!(insts[i + 1].1, Inst::Jcc { cc: Cc::Ae, .. }),
            "a fused compare is followed by its jae"
        );
        assert_eq!(
            next.class,
            InstClass::GuardCompare,
            "the fused guard's jae at offset {} must attribute as a guard",
            next.offset
        );
    }
    assert!(
        fused_cmps > 0,
        "the rmw module under guard fusion must contain fused guards"
    );
}
