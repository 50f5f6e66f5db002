//! The interpreter engine: `Engine`/`LoadedModule`/`Instance` impls.

use crate::run::{check_args, Exec};
use lb_core::exec::{
    build_instance_parts, Engine, HostFn, Instance, Linker, LoadError, LoadedModule,
};
use lb_core::{catch_traps, LinearMemory, MemoryConfig, Trap, TrapKind};
use lb_wasm::validate::{validate, ModuleMeta};
use lb_wasm::{Module, Value};
use std::sync::{Arc, OnceLock};

/// The in-place interpreter runtime (the reproduction's Wasm3 analog —
/// the paper's interpreter uses an equivalent of the `trap` strategy; ours
/// honors whatever strategy the memory config requests, since the checks
/// live in [`lb_core::LinearMemory`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpEngine;

impl InterpEngine {
    /// Create the engine.
    pub fn new() -> InterpEngine {
        InterpEngine
    }
}

/// A validated module ready for interpretation. Its instances share the
/// module and its metadata through `Arc`s.
#[derive(Debug)]
pub struct InterpModule {
    module: Arc<Module>,
    meta: Arc<ModuleMeta>,
}

impl Engine for InterpEngine {
    fn name(&self) -> &str {
        "interp"
    }

    fn load(&self, module: &Module) -> Result<Arc<dyn LoadedModule>, LoadError> {
        Ok(Arc::new(InterpModule::load(module)?))
    }
}

impl InterpModule {
    /// Validate `module` and wrap it for interpretation (concrete-type
    /// variant of `Engine::load`).
    ///
    /// # Errors
    /// Validation failures.
    pub fn load(module: &Module) -> Result<InterpModule, LoadError> {
        let meta = validate(module)?;
        Ok(InterpModule {
            module: Arc::new(module.clone()),
            meta: Arc::new(meta),
        })
    }

    /// Instantiate, returning the concrete instance type (which exposes
    /// [`InterpInstance::invoke_counted`]).
    ///
    /// # Errors
    /// As for `LoadedModule::instantiate`.
    pub fn instantiate_interp(
        &self,
        config: &MemoryConfig,
        linker: &Linker,
    ) -> Result<InterpInstance, LoadError> {
        let parts = build_instance_parts(&self.module, config, linker)?;
        let mut inst = InterpInstance {
            module: Arc::clone(&self.module),
            meta: Arc::clone(&self.meta),
            mem: parts.memory,
            globals: parts.globals,
            table: parts.table,
            host: parts.host,
            stack: Vec::with_capacity(4096),
        };
        if let Some(start) = inst.module.start {
            inst.call_raw(start, &[]).map_err(LoadError::Start)?;
        }
        Ok(inst)
    }
}

impl LoadedModule for InterpModule {
    fn instantiate(
        &self,
        config: &MemoryConfig,
        linker: &Linker,
    ) -> Result<Box<dyn Instance>, LoadError> {
        // Mirrors `jit.instantiate_ns`: the pool's effect on per-isolate
        // setup cost, measured at the same boundary in both engines.
        let t0 = std::time::Instant::now();
        let inst = self.instantiate_interp(config, linker)?;
        static INSTANTIATE_NS: OnceLock<lb_telemetry::Histogram> = OnceLock::new();
        INSTANTIATE_NS
            .get_or_init(|| lb_telemetry::histogram("interp.instantiate_ns"))
            .record(t0.elapsed().as_nanos() as u64);
        Ok(Box::new(inst))
    }
}

/// A live interpreted instance.
pub struct InterpInstance {
    module: Arc<Module>,
    meta: Arc<ModuleMeta>,
    mem: Option<LinearMemory>,
    globals: Vec<u64>,
    table: Vec<Option<u32>>,
    host: Vec<HostFn>,
    /// The shared value stack, owned by the instance so a hardware trap
    /// (which skips interpreter frames) leaks nothing.
    stack: Vec<u64>,
}

impl std::fmt::Debug for InterpInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterpInstance")
            .field("funcs", &self.module.num_funcs())
            .field("memory", &self.mem.is_some())
            .finish()
    }
}

impl InterpInstance {
    /// Invoke an export while recording dynamic instruction counts by cost
    /// class — the measurement input for the cross-ISA cost model.
    ///
    /// # Errors
    /// Any wasm trap, as for `invoke`.
    pub fn invoke_counted(
        &mut self,
        name: &str,
        args: &[Value],
    ) -> Result<(Option<Value>, lb_wasm::instr::OpCounts), Trap> {
        let fi = self
            .module
            .exported_func(name)
            .ok_or_else(|| Trap::new(TrapKind::Host(format!("no exported function {name:?}"))))?;
        let mut counts = lb_wasm::instr::OpCounts::default();
        let r = self.call_impl(fi, args, Some(&mut counts))?;
        Ok((r, counts))
    }

    fn call_raw(&mut self, func_idx: u32, args: &[Value]) -> Result<Option<Value>, Trap> {
        self.call_impl(func_idx, args, None)
    }

    fn call_impl(
        &mut self,
        func_idx: u32,
        args: &[Value],
        counts: Option<&mut lb_wasm::instr::OpCounts>,
    ) -> Result<Option<Value>, Trap> {
        let module = &*self.module;
        let ty = module
            .func_type(func_idx)
            .map_err(|e| Trap::new(TrapKind::Host(e.to_string())))?;
        check_args(&ty.params, args)?;

        self.stack.clear();
        for a in args {
            self.stack.push(a.to_bits());
        }

        let metas = &self.meta.funcs;
        let mem = self.mem.as_ref();
        let globals = &mut self.globals;
        let table = &self.table;
        let host = &self.host;
        let stack = &mut self.stack;

        catch_traps(move || {
            let mut ex = Exec {
                module,
                metas,
                mem,
                globals,
                table,
                host,
                stack,
                counts,
            };
            ex.call_function(func_idx)
        })?;

        Ok(ty
            .result()
            .map(|t| Value::from_bits(t, *self.stack.last().expect("result on stack"))))
    }
}

impl Instance for InterpInstance {
    fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
        let fi = self
            .module
            .exported_func(name)
            .ok_or_else(|| Trap::new(TrapKind::Host(format!("no exported function {name:?}"))))?;
        self.call_raw(fi, args)
    }

    fn memory(&self) -> Option<&LinearMemory> {
        self.mem.as_ref()
    }
}
