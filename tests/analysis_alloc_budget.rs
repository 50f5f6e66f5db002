//! Allocation budget for `lb-analysis`: heap allocations per abstract
//! step ([`lb_analysis::ModulePlan::steps`]) over whole workload suites.
//!
//! The analysis copies and joins abstract states at every branch, `if`
//! and loop probe. Those copies reuse retired states' buffers and the
//! joins run in place, so allocation happens per function (plan vectors,
//! the structured tree, the first few states), not per step. A counting
//! global allocator measures that here. Both numbers are deterministic
//! work counts, so the test cannot flip on timing noise.
//!
//! Budgets are a third of what the analysis made when every join built a
//! new state and every branch cloned one (0.17 per step on SPEC Mini,
//! 0.55 on PolyBench Small).

use lb_polybench::common::Dataset;
use lb_spec_proxy::Scale;
use lb_wasm::validate::validate;
use lb_wasm::Module;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (fresh and resized), then delegates
/// to the system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread local, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, steps)` of analyzing every module, counting only the
/// analysis itself (modules are built and validated beforehand).
fn allocs_and_steps(modules: &[Module]) -> (u64, u64) {
    let metas: Vec<_> = modules
        .iter()
        .map(|m| validate(m).expect("workload validates"))
        .collect();
    let mut steps = 0;
    let before = ALLOCS.with(Cell::get);
    for (m, meta) in modules.iter().zip(&metas) {
        let plan = lb_analysis::analyze_module(m, meta);
        steps += plan.steps();
        drop(plan);
    }
    (ALLOCS.with(Cell::get) - before, steps)
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
