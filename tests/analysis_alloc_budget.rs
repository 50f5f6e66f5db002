//! Allocation budget for `lb-analysis`: heap allocations per abstract
//! step ([`lb_analysis::ModulePlan::steps`]) over whole workload suites.
//!
//! The analysis copies and joins abstract states at every branch, `if`
//! and loop probe. Those copies reuse retired states' buffers and the
//! joins run in place, so allocation happens per function (plan vectors,
//! the structured tree, the first few states), not per step. A counting
//! global allocator (`alloc_count`) measures that here. Both numbers are deterministic
//! work counts, so the test cannot flip on timing noise.
//!
//! Budgets are a third of what the analysis made when every join built a
//! new state and every branch cloned one (0.17 per step on SPEC Mini,
//! 0.55 on PolyBench Small).

mod alloc_count;

use lb_polybench::common::Dataset;
use lb_spec_proxy::Scale;
use lb_wasm::validate::validate;
use lb_wasm::Module;

/// `(allocations, steps)` of analyzing every module, counting only the
/// analysis itself (modules are built and validated beforehand).
fn allocs_and_steps(modules: &[Module]) -> (u64, u64) {
    let metas: Vec<_> = modules
        .iter()
        .map(|m| validate(m).expect("workload validates"))
        .collect();
    let mut steps = 0;
    let (allocs, _) = alloc_count::counted(|| {
        for (m, meta) in modules.iter().zip(&metas) {
            let plan = lb_analysis::analyze_module(m, meta);
            steps += plan.steps();
            drop(plan);
        }
    });
    (allocs, steps)
}

#[test]
fn analysis_allocations_per_step_stay_within_budget() {
    let spec: Vec<Module> = lb_spec_proxy::all(Scale::Mini)
        .into_iter()
        .map(|b| b.module)
        .collect();
    let polybench: Vec<Module> = lb_polybench::all(Dataset::Small)
        .into_iter()
        .map(|b| b.module)
        .collect();
    for (name, modules, budget) in [
        ("SPEC Mini", spec, 0.06),
        ("PolyBench Small", polybench, 0.18),
    ] {
        let (allocs, steps) = allocs_and_steps(&modules);
        assert!(steps > 0, "{name}: no abstract steps");
        let per_step = allocs as f64 / steps as f64;
        eprintln!("{name}: {allocs} allocations / {steps} steps = {per_step:.4} per step");
        assert!(
            per_step <= budget,
            "{name}: {per_step:.4} allocations per abstract step exceeds the budget of {budget}"
        );
    }
}
