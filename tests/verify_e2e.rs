//! End-to-end translation validation: every function of every PolyBench
//! kernel — plus the synthetic dynamic-bound modules whose loops the
//! analysis *versions* with hoisted preheader guards — compiled under
//! every bounds-check strategy at every tier, with the analysis plan both
//! consumed and withheld, must verify with zero findings. The verifier's
//! independently-derived counts must equal what codegen said it did:
//! `proven_elided == jit.checks.static_elided`,
//! `proven_hoisted == jit.checks.hoisted`, and
//! `proven_fused == jit.checks.fused`, per configuration.
//!
//! One `#[test]` on purpose: the jit and verify counters are
//! process-global, so the sweep owns the whole binary and compares
//! per-configuration deltas without interference.

mod common;

use lb_jit::codegen::{compile_function, CompileParams, OptLevel};
use lb_verify::{verify_function, FuncInput};
use lb_wasm::{Module, PAGE_SIZE};

const STRATEGIES: [lb_core::BoundsStrategy; 5] = [
    lb_core::BoundsStrategy::None,
    lb_core::BoundsStrategy::Clamp,
    lb_core::BoundsStrategy::Trap,
    lb_core::BoundsStrategy::Mprotect,
    lb_core::BoundsStrategy::Uffd,
];

/// Totals one module contributes to the sweep.
#[derive(Default)]
struct SweepTotals {
    configs: usize,
    sites: u64,
    elided: u64,
    hoisted: u64,
    fused: u64,
}

fn sweep_module(name: &str, module: &Module, totals: &mut SweepTotals) {
    let jit_elided = lb_telemetry::counter("jit.checks.static_elided");
    let jit_hoisted = lb_telemetry::counter("jit.checks.hoisted");
    let jit_fused = lb_telemetry::counter("jit.checks.fused");
    let meta = lb_wasm::validate(module).expect("module validates");
    let plan = lb_analysis::analyze_module(module, &meta);
    let extents = lb_jit::dataflow::module_extents(module);
    let mem_min_bytes = module
        .memory
        .as_ref()
        .map_or(0, |m| u64::from(m.limits.min) * PAGE_SIZE as u64);
    assert_eq!(plan.mem_min_bytes, mem_min_bytes, "{name}: plan mem_min");

    for strategy in STRATEGIES {
        // (tier, analysis plan consulted, guard fusion) — `OptLevel::None`
        // never consults the plan (mirrors `mem_operand`), `Full` without
        // a plan emits every check, and the two fusion configs emit trap
        // checks as limit-table compares with and without the static
        // plan (without, every access keeps a check — the densest fusion
        // coverage).
        for (opt, with_plan, guardopt) in [
            (OptLevel::None, false, false),
            (OptLevel::Basic, true, false),
            (OptLevel::Full, true, true),
            (OptLevel::Full, false, true),
            (OptLevel::Full, true, false),
            (OptLevel::Full, false, false),
        ] {
            let params = CompileParams {
                module,
                metas: &meta.funcs,
                strategy,
                opt,
                safepoints: false,
                funcptrs_base: 0,
                plans: with_plan.then_some(&plan),
                guardopt,
                limit_extents: &extents,
            };
            let before_elided = jit_elided.get();
            let before_hoisted = jit_hoisted.get();
            let before_fused = jit_fused.get();
            let codes: Vec<Vec<u8>> = (0..module.functions.len())
                .map(|di| compile_function(params, di))
                .collect();
            let jit_elided_delta = jit_elided.get() - before_elided;
            let jit_hoisted_delta = jit_hoisted.get() - before_hoisted;
            let jit_fused_delta = jit_fused.get() - before_fused;

            let mut verify_elided = 0u64;
            let mut verify_hoisted = 0u64;
            let mut verify_fused = 0u64;
            for (di, code) in codes.iter().enumerate() {
                let func_plan = (with_plan && opt != OptLevel::None).then(|| &plan.funcs[di]);
                // The verifier is handed the extent table recomputed from
                // the module, never told which sites fused.
                let limit_extents =
                    (strategy == lb_core::BoundsStrategy::Trap).then(|| extents.clone());
                let report = verify_function(&FuncInput {
                    func_index: di,
                    code,
                    body: &module.functions[di].body,
                    meta: &meta.funcs[di],
                    strategy,
                    plan: func_plan,
                    mem_min_bytes,
                    reserve_bytes: lb_core::DEFAULT_RESERVE_BYTES as u64,
                    limit_extents,
                });
                assert!(
                    report.findings.is_empty(),
                    "{name} [{strategy:?}/{opt:?}/plan={with_plan}/go={guardopt}] func {di}: {}",
                    report
                        .findings
                        .iter()
                        .map(|f| f.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                );
                assert_eq!(
                    report.sites_checked,
                    report.proven_guarded
                        + report.proven_elided
                        + report.proven_hoisted
                        + report.proven_fused,
                    "{name} [{strategy:?}/{opt:?}/plan={with_plan}/go={guardopt}] func {di}: \
                     every site must be proven one way or the other"
                );
                verify_elided += report.proven_elided;
                verify_hoisted += report.proven_hoisted;
                verify_fused += report.proven_fused;
                totals.sites += report.sites_checked;
            }
            assert_eq!(
                verify_elided, jit_elided_delta,
                "{name} [{strategy:?}/{opt:?}/plan={with_plan}/go={guardopt}]: the verifier's \
                 elision count must agree with jit.checks.static_elided"
            );
            assert_eq!(
                verify_hoisted, jit_hoisted_delta,
                "{name} [{strategy:?}/{opt:?}/plan={with_plan}/go={guardopt}]: the verifier's \
                 hoisted count must agree with jit.checks.hoisted"
            );
            assert_eq!(
                verify_fused, jit_fused_delta,
                "{name} [{strategy:?}/{opt:?}/plan={with_plan}/go={guardopt}]: the verifier's \
                 fused-guard count must agree with jit.checks.fused"
            );
            totals.elided += verify_elided;
            totals.hoisted += verify_hoisted;
            totals.fused += verify_fused;
            totals.configs += 1;
        }
    }
}

#[test]
fn all_kernels_verify_with_zero_findings() {
    let mut totals = SweepTotals::default();

    for name in lb_polybench::NAMES {
        let bench = lb_polybench::by_name(name, lb_polybench::Dataset::Mini).expect("known kernel");
        sweep_module(name, &bench.module, &mut totals);
    }
    // The synthetic dynamic-bound modules: the only ones in the sweep
    // whose plans contain `ElideHoisted` sites, so the only ones that
    // exercise versioned-loop emission and its verification.
    let hoisted_before = totals.hoisted;
    sweep_module(
        "dynamic-bound",
        &common::dynamic_bound_module(),
        &mut totals,
    );
    sweep_module(
        "multi-function",
        &common::multi_function_module(),
        &mut totals,
    );
    assert!(
        totals.hoisted > hoisted_before,
        "the synthetic modules must exercise hoisted-guard verification"
    );
    // And straight-line same-address access runs, including one across a
    // `memory.grow`.
    sweep_module("rmw", &common::rmw_module(), &mut totals);
    sweep_module("redefine", &common::redefine_module(), &mut totals);
    sweep_module("grow-between", &common::grow_between_module(), &mut totals);

    // The sweep must actually have exercised elision: the analysis plans
    // fire on these kernels.
    assert_eq!(totals.configs, 35 * 5 * 6);
    assert!(totals.sites > 0, "kernels contain memory accesses");
    assert!(
        totals.elided > 0,
        "expected some elided checks across the sweep"
    );
    // And guard fusion: the fusion configs must have emitted (and the
    // verifier re-proven) fused guards.
    assert!(
        totals.fused > 0,
        "expected some fused guards across the sweep"
    );
}
