//! The workloads, and the set-up that prepares their modules before any
//! timing starts.

use lb_core::{BoundsStrategy, Engine, Linker, LoadedModule, MemoryConfig};
use lb_dsl::NativeFactory;
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::instr::Instr;
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{FuncType, Module, ValType};
use std::sync::Arc;

/// The bounds strategies measured against native, in report order.
pub const STRATEGIES: [BoundsStrategy; 3] = [
    BoundsStrategy::Trap,
    BoundsStrategy::Clamp,
    BoundsStrategy::Uffd,
];

/// Export added to every module: one served request runs
/// `init` → `kernel` → `checksum`.
pub const SERVE_EXPORT: &str = "serve";

/// A workload: one suite of kernels and its serving parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 30 PolyBench/C kernels at `Dataset::Small`: every access is
    /// proven in bounds, so JIT code quality dominates execution.
    Polybench,
    /// The 7 SPEC CPU2017 proxies at `Scale::Mini`: 31 residual checks,
    /// short kernels, and x264's costly analysis.
    Spec,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "polybench" => Some(Workload::Polybench),
            "spec" => Some(Workload::Spec),
            _ => None,
        }
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Polybench => "polybench",
            Workload::Spec => "spec",
        }
    }

    fn benchmarks(self) -> Vec<lb_dsl::Benchmark> {
        match self {
            Workload::Polybench => lb_polybench::all(lb_polybench::Dataset::Small),
            Workload::Spec => lb_spec_proxy::all(lb_spec_proxy::Scale::Mini),
        }
    }

    /// Open-loop offered load in requests per second, fixed here and never
    /// derived at run time, so a change that slows serving shows as
    /// latency, not as a lower rate. Measured on a 2-vCPU Intel Xeon VM
    /// (Linux 6.18), closed-loop capacity is 470–600 (polybench) and
    /// 7500–9500 (spec) requests/s. The rates stay low enough that p90 falls on
    /// compute-bound requests rather than on queueing, which amplifies the
    /// host's speed drift: on polybench the interval (50 ms) exceeds the
    /// longest request (at 55 requests/s p90 was set by what queued behind
    /// it and moved 4–7 ms across seeds); on spec, p90 moved 38% with host
    /// speed at 1800 requests/s.
    pub fn serve_rate(self) -> f64 {
        match self {
            Workload::Polybench => 20.0,
            Workload::Spec => 900.0,
        }
    }

    /// Geomean over modules of one native iteration (factory + init +
    /// kernel), µs, at the reference host speed: the fast periods of the
    /// 2-vCPU Intel Xeon VM (Linux 6.18) the benchmark was written on. Time
    /// metrics are reported at this speed.
    pub fn reference_native_us(self) -> f64 {
        match self {
            Workload::Polybench => 200.0,
            Workload::Spec => 8.5,
        }
    }

    /// Requests of one serve window's closed loop and open loop, in
    /// decks: a deck serves every module once, in seeded order, so every
    /// window serves the same mix whatever the seed.
    pub fn serve_decks(self) -> (usize, usize) {
        match self {
            Workload::Polybench => (6, 1),
            Workload::Spec => (300, 150),
        }
    }

    /// Exec rounds run per round of phases, so that each phase gets a
    /// comparable share of the run on both workloads.
    pub fn exec_reps(self) -> usize {
        match self {
            Workload::Polybench => 2,
            Workload::Spec => 20,
        }
    }
}

/// Memory for one instance under `strategy`: the 8 GiB reservation every
/// production-shaped strategy needs, sized by the module's declaration.
pub fn mem_config(strategy: BoundsStrategy) -> MemoryConfig {
    MemoryConfig::new(strategy, 0, 4096)
}

/// One prepared kernel.
pub struct Kernel {
    /// Benchmark name.
    pub name: String,
    /// The encoded module (with the serve export), input to cold start.
    pub bytes: Vec<u8>,
    /// The native twin.
    pub native: NativeFactory,
    /// The native twin's checksum, which every wasm run must reproduce.
    pub expected: f64,
    /// The module loaded into the shared engine, compiled for every
    /// strategy in [`STRATEGIES`].
    pub loaded: Arc<dyn LoadedModule>,
}

/// Add the serve export (init → kernel → checksum, returning the
/// checksum) to a benchmark module.
fn with_serve_export(mut m: Module) -> Result<Module, String> {
    let func = |m: &Module, name: &str| {
        m.exported_func(name)
            .ok_or_else(|| format!("module has no {name:?} export"))
    };
    let body = vec![
        Instr::Call(func(&m, "init")?),
        Instr::Call(func(&m, "kernel")?),
        Instr::Call(func(&m, "checksum")?),
        Instr::End,
    ];
    let ty = m.intern_type(FuncType::new(vec![], vec![ValType::F64]));
    let mut f = Function::new(ty, vec![], body);
    f.name = Some(SERVE_EXPORT.into());
    m.functions.push(f);
    let idx = m.num_funcs() - 1;
    m.exports.push(Export {
        name: SERVE_EXPORT.into(),
        kind: ExportKind::Func(idx),
    });
    Ok(m)
}

/// Build every module, compute the native checksums, load every module
/// into `engine` (validate + analysis) and compile it for each strategy
/// (the first instantiation generates code).
pub fn setup(w: Workload, engine: &JitEngine) -> Result<Vec<Kernel>, String> {
    let linker = Linker::new();
    let mut out = Vec::new();
    for b in w.benchmarks() {
        let module = with_serve_export(b.module).map_err(|e| format!("{}: {e}", b.name))?;
        let bytes = lb_wasm::binary::encode(&module);
        let mut twin = (b.native)();
        twin.init();
        twin.kernel();
        let expected = twin.checksum();
        let loaded = engine
            .load(&module)
            .map_err(|e| format!("{}: load: {e}", b.name))?;
        for s in STRATEGIES {
            loaded
                .instantiate(&mem_config(s), &linker)
                .map_err(|e| format!("{}: instantiate under {}: {e}", b.name, s.name()))?;
        }
        out.push(Kernel {
            name: b.name,
            bytes,
            native: b.native,
            expected,
            loaded,
        });
    }
    Ok(out)
}

/// A fresh engine with the measured profile.
pub fn engine() -> JitEngine {
    JitEngine::new(JitProfile::wavm())
}
