//! Allocation budget for instantiation, in both engines.
//!
//! `load` builds everything derived from the module once (the module
//! itself, its validation metadata, the analysis plan, compiled code) and
//! every instance shares it through an `Arc`. An instance owns only its
//! memory, globals, table and context. A counting global allocator
//! (`alloc_count`) checks both halves of that split on the calling thread:
//!
//! - the bytes one isolate iteration (instantiate, `init`, `kernel`,
//!   `checksum`, drop) allocates do not change when the kernel body is ten
//!   times longer, so nothing proportional to the code is copied per
//!   instance or per call;
//! - allocations per `instantiate` over SPEC Mini and PolyBench Small stay
//!   within a budget. When every instance deep-copied the module, a JIT
//!   `instantiate` made 21 allocations (26 on deepsjeng); the budget is
//!   under half of that.
//!
//! Both numbers are deterministic counts, so the test cannot flip on
//! timing noise.

mod alloc_count;

use alloc_count::counted;
use lb_core::exec::{Engine, Linker, LoadedModule};
use lb_core::{BoundsStrategy, MemoryConfig};
use lb_dsl::expr::{f64 as cf, i32 as ci};
use lb_dsl::kernel::checksum_fn;
use lb_dsl::{DslFunc, KernelModule, Layout};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use lb_polybench::common::Dataset;
use lb_spec_proxy::Scale;
use lb_wasm::Module;
use std::sync::Arc;

/// The two engines: the interpreter and the JIT at its load-time `Full`
/// tier (no background tier-up thread, which would allocate off this
/// thread at a time of its own choosing).
fn engines() -> [Box<dyn Engine>; 2] {
    [
        Box::new(InterpEngine::new()),
        Box::new(JitEngine::new(JitProfile::wavm())),
    ]
}

fn config() -> MemoryConfig {
    MemoryConfig::new(BoundsStrategy::Trap, 0, 1024).with_reserve(64 << 20)
}

/// One isolate iteration, as the harness runs it: instantiate, `init`,
/// `kernel`, `checksum`, then drop the instance.
fn iteration(loaded: &Arc<dyn LoadedModule>) {
    let mut inst = loaded
        .instantiate(&config(), &Linker::new())
        .expect("instantiate");
    for export in ["init", "kernel", "checksum"] {
        inst.invoke(export, &[]).expect(export);
    }
}

/// A module whose `kernel` is `reps` straight-line read-modify-writes of
/// one array, so its body grows linearly with `reps`.
fn straight_line_module(reps: usize) -> Module {
    const N: u32 = 64;
    let mut layout = Layout::new();
    let a = layout.array_f64(N);

    let mut init = DslFunc::new("init", &[], None);
    let i = init.local_i32();
    init.for_i32(i, ci(0), ci(N as i32), |f| {
        a.set(f, i.get(), i.get().to_f64());
    });

    let mut kernel = DslFunc::new("kernel", &[], None);
    for r in 0..reps {
        let idx = ci((r as u32 % N) as i32);
        a.set(&mut kernel, idx.clone(), a.at(idx) * cf(0.5) + cf(1.0));
    }

    let mut km = KernelModule::new();
    km.memory(layout.pages(), Some(layout.pages()));
    km.add_exported(init);
    km.add_exported(kernel);
    km.add_exported(checksum_fn(&[a]));
    km.finish()
}

/// Bytes one warm isolate iteration allocates.
fn iteration_bytes(engine: &dyn Engine, module: &Module) -> u64 {
    let loaded = engine.load(module).expect("load");
    // The first iteration compiles the strategy's code and registers
    // telemetry names; later ones allocate only per-instance state.
    iteration(&loaded);
    counted(|| iteration(&loaded)).1
}

#[test]
fn iteration_bytes_do_not_grow_with_the_kernel_body() {
    let short = straight_line_module(40);
    let long = straight_line_module(400);
    assert!(
        long.functions[1].body.len() >= 9 * short.functions[1].body.len(),
        "the long kernel should be about ten times the short one"
    );
    for engine in engines() {
        let (s, l) = (
            iteration_bytes(&*engine, &short),
            iteration_bytes(&*engine, &long),
        );
        eprintln!(
            "{}: {s} bytes per iteration (short), {l} (long)",
            engine.name()
        );
        assert_eq!(
            s,
            l,
            "{}: an isolate iteration allocates {s} bytes with the short kernel \
             but {l} with the ten-times-longer one",
            engine.name()
        );
    }
}

/// Most allocations one `instantiate` may make, in either engine.
const INSTANTIATE_BUDGET: u64 = 8;

#[test]
fn instantiate_allocations_stay_within_budget() {
    let modules = lb_spec_proxy::all(Scale::Mini)
        .into_iter()
        .chain(lb_polybench::all(Dataset::Small));
    let modules: Vec<(String, Module)> = modules.map(|b| (b.name, b.module)).collect();
    for engine in engines() {
        let mut worst = (0, "");
        for (name, module) in &modules {
            let loaded = engine.load(module).expect("load");
            drop(loaded.instantiate(&config(), &Linker::new()).expect("warm"));
            let mut inst = None;
            let (allocs, _) = counted(|| {
                inst = Some(
                    loaded
                        .instantiate(&config(), &Linker::new())
                        .expect("instantiate"),
                );
            });
            drop(inst);
            if allocs > worst.0 {
                worst = (allocs, name);
            }
        }
        eprintln!(
            "{}: at most {} allocations per instantiate ({})",
            engine.name(),
            worst.0,
            worst.1
        );
        assert!(
            worst.0 <= INSTANTIATE_BUDGET,
            "{}: instantiating {} made {} allocations, over the budget of {INSTANTIATE_BUDGET}",
            engine.name(),
            worst.1,
            worst.0
        );
    }
}
