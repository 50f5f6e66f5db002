//! Cross-crate integration tests: the full pipeline from DSL-authored
//! kernels through both engines, the harness, the cost model and the
//! simulator, exercised together as a downstream user would.
//!
//! Every test that instantiates holds `common::process_lock()`: a run's
//! telemetry is a process-wide delta, which a sibling test's isolates
//! would inflate.

mod common;

use leaps_and_bounds::core::exec::{Engine, Linker};
use leaps_and_bounds::core::{BoundsStrategy, MemoryConfig};
use leaps_and_bounds::harness::{run_benchmark, EngineSel, RunSpec};
use leaps_and_bounds::interp::InterpEngine;
use leaps_and_bounds::jit::{JitEngine, JitProfile};
use leaps_and_bounds::{isa_model, polybench, sim, spec_proxy};

#[test]
fn harness_agrees_across_engines_on_checksums() {
    let _serial = common::process_lock();
    let bench = polybench::by_name("bicg", polybench::Dataset::Mini).unwrap();
    for engine in [
        EngineSel::Native,
        EngineSel::Interp,
        EngineSel::Wavm,
        EngineSel::Wasmtime,
        EngineSel::V8,
    ] {
        let mut spec = RunSpec::new(engine, BoundsStrategy::Mprotect);
        spec.iterations = 3;
        spec.reserve_bytes = 64 << 20;
        let r = run_benchmark(&bench, &spec);
        assert!(r.checksum_ok, "{}", engine.name());
        // One instantiation per iteration (the native twin records none).
        let instantiated: u64 = ["jit.instantiate_ns", "interp.instantiate_ns"]
            .iter()
            .filter_map(|h| r.telemetry.histogram(h))
            .map(|h| h.count)
            .sum();
        let expected = if engine == EngineSel::Native { 0 } else { 3 };
        assert_eq!(instantiated, expected, "{}", engine.name());
    }
}

#[test]
fn spec_proxies_run_through_harness() {
    let _serial = common::process_lock();
    let bench = spec_proxy::by_name("xz", spec_proxy::Scale::Mini).unwrap();
    let mut spec = RunSpec::new(EngineSel::Wasmtime, BoundsStrategy::Trap);
    spec.iterations = 2;
    spec.reserve_bytes = 64 << 20;
    let r = run_benchmark(&bench, &spec);
    assert!(r.checksum_ok);
}

#[test]
fn cost_model_consumes_suite_benchmarks() {
    let bench = spec_proxy::by_name("mcf", spec_proxy::Scale::Mini).unwrap();
    let mix = isa_model::profile_benchmark(&bench);
    assert!(mix.mem_accesses() > 0);
    for isa in isa_model::all_profiles() {
        let o = isa_model::strategy_overhead(&mix, &isa, BoundsStrategy::Trap);
        assert!(o > 0.0 && o < 2.0, "{}: {o}", isa.name);
    }
}

#[test]
fn simulator_and_harness_tell_the_same_story() {
    // Real single-core measurement shows mprotect costs more syscalls;
    // the simulator shows the multicore consequence. Both must point the
    // same direction: uffd lighter on the mm subsystem.
    let _serial = common::process_lock();
    let bench = polybench::by_name("trisolv", polybench::Dataset::Mini).unwrap();
    let mut spec = RunSpec::new(EngineSel::Wavm, BoundsStrategy::Mprotect);
    spec.iterations = 5;
    spec.reserve_bytes = 64 << 20;
    let mp = run_benchmark(&bench, &spec);
    assert!(mp.vm.mprotect >= 5, "one mprotect per isolate at minimum");

    let p_mp = sim::SimParams::new(sim::SimStrategy::Mprotect, 16, 50_000);
    let p_uf = sim::SimParams::new(sim::SimStrategy::Uffd, 16, 50_000);
    let r_mp = sim::simulate(&p_mp);
    let r_uf = sim::simulate(&p_uf);
    assert!(r_uf.iters_per_sec() > r_mp.iters_per_sec());
}

#[test]
fn wasm_binary_is_portable_between_engines() {
    // Encode with one engine's module, decode, run on the other.
    let _serial = common::process_lock();
    let bench = polybench::by_name("mvt", polybench::Dataset::Mini).unwrap();
    let bytes = leaps_and_bounds::wasm::binary::encode(&bench.module);
    let module = leaps_and_bounds::wasm::binary::decode(&bytes).unwrap();

    let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 64).with_reserve(16 << 20);
    let mut results = Vec::new();
    let interp = InterpEngine::new();
    let jit = JitEngine::new(JitProfile::wavm());
    let engines: [&dyn Engine; 2] = [&interp, &jit];
    for engine in engines {
        let loaded = engine.load(&module).unwrap();
        let mut inst = loaded.instantiate(&config, &Linker::new()).unwrap();
        inst.invoke("init", &[]).unwrap();
        inst.invoke("kernel", &[]).unwrap();
        results.push(
            inst.invoke("checksum", &[])
                .unwrap()
                .unwrap()
                .as_f64()
                .unwrap(),
        );
    }
    assert_eq!(results[0].to_bits(), results[1].to_bits());
    assert_eq!(results[0].to_bits(), bench.native_checksum().to_bits());
}

#[test]
fn many_isolates_coexist_and_clean_up() {
    // Stress the arena registry: dozens of live memories across strategies,
    // interleaved creation/teardown, then verify full cleanup.
    let _serial = common::process_lock();
    let bench = polybench::by_name("jacobi-1d", polybench::Dataset::Mini).unwrap();
    let engine = JitEngine::new(JitProfile::wasmtime());
    let loaded = engine.load(&bench.module).unwrap();
    let mut isolates = Vec::new();
    for i in 0..24 {
        let s = match i % 3 {
            0 => BoundsStrategy::Trap,
            1 => BoundsStrategy::Mprotect,
            _ => BoundsStrategy::None,
        };
        let config = MemoryConfig::new(s, 1, 32).with_reserve(8 << 20);
        isolates.push(loaded.instantiate(&config, &Linker::new()).unwrap());
    }
    for inst in isolates.iter_mut() {
        inst.invoke("init", &[]).unwrap();
        inst.invoke("kernel", &[]).unwrap();
    }
    // Drop every other one, run the rest again.
    let mut kept = Vec::new();
    for (i, inst) in isolates.into_iter().enumerate() {
        if i % 2 == 0 {
            kept.push(inst);
        }
    }
    for inst in kept.iter_mut() {
        inst.invoke("kernel", &[]).unwrap();
    }
}
