//! The JIT engine: profiles modeling the paper's compiling runtimes, module
//! compilation, entry trampolines, import thunks, instances, and the
//! background tier-up thread.

use crate::asm;
use crate::asm::Xmm;
use crate::asm::{Asm, Mem, Reg, W};
use crate::codebuf::CodeBuf;
use crate::codegen::{compile_function_mapped, CompileParams, OptLevel};
use crate::runtime::{ctx_off, FuncPtrs, InstanceInner, Pauser, TableEntry, VmCtx};
use lb_core::exec::{build_instance_parts, Engine, Instance, Linker, LoadError, LoadedModule};
use lb_core::{catch_traps, BoundsStrategy, LinearMemory, MemoryConfig, Trap, TrapKind};
use lb_wasm::validate::{validate, ModuleMeta};
use lb_wasm::{FuncType, Module, ValType, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How much host stack a wasm activation may consume before the inline
/// stack check traps.
const WASM_STACK_BUDGET: usize = 1 << 20;

/// Counter name for code bytes emitted at a tier (static, so the
/// telemetry registry can intern it).
fn code_bytes_counter(opt: OptLevel) -> &'static str {
    match opt {
        OptLevel::None => "jit.code_bytes.none",
        OptLevel::Basic => "jit.code_bytes.basic",
        OptLevel::Full => "jit.code_bytes.full",
    }
}

/// Tier label attached to profiler code regions.
fn tier_label(opt: OptLevel) -> &'static str {
    match opt {
        OptLevel::None => "baseline",
        OptLevel::Basic => "basic",
        OptLevel::Full => "full",
    }
}

/// Hand a freshly published code buffer to `lb-prof` so samples landing
/// in it resolve to functions and wasm offsets. Regions stay registered
/// (with a private byte copy) for the life of the process — tier-up
/// replaces the funcptrs, not the registration — so samples taken in an
/// old tier still attribute correctly. No-op unless profiling is on.
fn register_prof_region(
    buf: &CodeBuf,
    blob: &[u8],
    strategy: BoundsStrategy,
    opt: OptLevel,
    funcs: Vec<lb_prof::FuncRange>,
) {
    if !lb_prof::enabled() {
        return;
    }
    lb_prof::register_region(lb_prof::RegionInfo {
        base: buf.addr(0),
        len: blob.len(),
        code: blob.to_vec(),
        tier: tier_label(opt),
        strategy: strategy.name(),
        mem_size_disp: ctx_off::MEM_SIZE,
        funcs,
    });
}

/// An engine profile: which of the paper's runtimes this engine models.
#[derive(Debug, Clone, Copy)]
pub struct JitProfile {
    /// Report name (matches the paper's runtime names).
    pub name: &'static str,
    /// Code quality of the initial compile.
    pub opt: OptLevel,
    /// Recompile at `Full` on a background thread and swap code in
    /// (V8's baseline → TurboFan tiering).
    pub tiered: bool,
    /// Poll for stop-the-world pauses at loop back-edges.
    pub safepoints: bool,
    /// Run the periodic GC pauser thread (V8's worker-thread pauses).
    pub gc_pause: bool,
    /// Run the `lb-analysis` bounds-check elimination pass at load time
    /// and consume its plan at the optimizing tiers.
    pub analysis: bool,
    /// Ignored: no tier versions loops behind hoisted guards. Kept only so
    /// the committed `perfbench` harness, which reads it, builds unedited.
    pub hoisting: bool,
    /// Emit `Full`-tier trap checks as fused compares against the
    /// module limit table ([`crate::codegen::CompileParams::guardopt`]).
    /// No effect at other tiers or strategies.
    pub guardopt: bool,
}

impl JitProfile {
    /// Toggle the static bounds-check analysis (on by default; turning it
    /// off emits every check, for differential testing).
    pub fn with_analysis(mut self, on: bool) -> JitProfile {
        self.analysis = on;
        self
    }

    /// Toggle guard fusion at `Full` (on by default; turning it off
    /// emits every trap check as `lea`/`cmp`/`ja`, for differential
    /// testing and A/B benchmarks).
    pub fn with_guardopt(mut self, on: bool) -> JitProfile {
        self.guardopt = on;
        self
    }

    /// WAVM: LLVM-quality AOT — our `Full` tier at load time.
    pub fn wavm() -> JitProfile {
        JitProfile {
            name: "wavm",
            opt: OptLevel::Full,
            tiered: false,
            safepoints: false,
            gc_pause: false,
            analysis: true,
            hoisting: false,
            guardopt: true,
        }
    }

    /// Wasmtime: Cranelift AOT — register allocation without the extra
    /// optimization passes.
    pub fn wasmtime() -> JitProfile {
        JitProfile {
            name: "wasmtime",
            opt: OptLevel::Basic,
            tiered: false,
            safepoints: false,
            gc_pause: false,
            analysis: true,
            hoisting: false,
            guardopt: true,
        }
    }

    /// V8-TurboFan: baseline tier immediately, optimizing tier in the
    /// background, plus periodic stop-the-world pauses.
    pub fn v8() -> JitProfile {
        JitProfile {
            name: "v8",
            opt: OptLevel::None,
            tiered: true,
            safepoints: true,
            gc_pause: true,
            analysis: true,
            hoisting: false,
            guardopt: true,
        }
    }
}

/// The JIT execution engine.
pub struct JitEngine {
    profile: JitProfile,
    pauser: OnceLock<Arc<Pauser>>,
}

impl std::fmt::Debug for JitEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitEngine")
            .field("profile", &self.profile.name)
            .finish()
    }
}

impl JitEngine {
    /// Create an engine with the given profile.
    pub fn new(profile: JitProfile) -> JitEngine {
        JitEngine {
            profile,
            pauser: OnceLock::new(),
        }
    }

    /// The profile this engine runs.
    pub fn profile(&self) -> JitProfile {
        self.profile
    }

    fn pauser(&self) -> Option<Arc<Pauser>> {
        if !self.profile.gc_pause {
            return None;
        }
        Some(
            self.pauser
                .get_or_init(|| {
                    Pauser::start(
                        std::time::Duration::from_millis(10),
                        std::time::Duration::from_micros(300),
                    )
                })
                .clone(),
        )
    }
}

/// Compilation artifacts for one strategy (code must be regenerated per
/// strategy because checks are inlined).
struct StrategyCode {
    /// Keeps executable mappings alive; index 0 is the initial tier.
    bufs: Mutex<Vec<Arc<CodeBuf>>>,
    funcptrs: Arc<FuncPtrs>,
    /// Entry-trampoline address per defined function.
    trampolines: Vec<usize>,
    /// 1 once the background tier-up (if any) has been published.
    tiered_up: AtomicU32,
}

/// A compiled module (per engine); per-strategy code is built lazily at
/// instantiation since the memory config carries the strategy.
pub struct JitModule {
    module: Module,
    meta: ModuleMeta,
    profile: JitProfile,
    pauser: Option<Arc<Pauser>>,
    /// Canonical type id per type index (types may repeat after decode).
    canon_types: Vec<usize>,
    /// Bounds-check plan from `lb-analysis` (absent when the profile
    /// disables analysis).
    plan: Option<Arc<lb_analysis::ModulePlan>>,
    /// Fused-guard extent table ([`crate::dataflow::module_extents`]),
    /// programmed into every instance's `VmCtx::limit_extents`.
    extents: Vec<u64>,
    code: Mutex<HashMap<BoundsStrategy, Arc<StrategyCode>>>,
}

impl std::fmt::Debug for JitModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitModule")
            .field("profile", &self.profile.name)
            .field("funcs", &self.module.functions.len())
            .finish()
    }
}

impl Engine for JitEngine {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn load(&self, module: &Module) -> Result<Arc<dyn LoadedModule>, LoadError> {
        let meta = validate(module)?;
        // The internal calling convention passes up to 6 integer and 8
        // float arguments in registers.
        for (i, ty) in module.types.iter().enumerate() {
            let ints = ty.params.iter().filter(|t| t.is_int()).count();
            let floats = ty.params.iter().filter(|t| t.is_float()).count();
            if ints > 6 || floats > 8 {
                return Err(LoadError::Unsupported(format!(
                    "type {i}: too many parameters for the register convention"
                )));
            }
        }
        let canon_types = canonical_type_ids(module);
        let plan = self.profile.analysis.then(|| {
            let _span = lb_telemetry::span!("analysis.module", module.functions.len());
            let t0 = lb_telemetry::clock::now_ns();
            let plan = lb_analysis::analyze_module(module, &meta);
            lb_telemetry::histogram("analysis.module_ns")
                .record(lb_telemetry::clock::now_ns().saturating_sub(t0));
            Arc::new(plan)
        });
        let extents = crate::dataflow::module_extents(module);
        Ok(Arc::new(JitModule {
            module: module.clone(),
            meta,
            profile: self.profile,
            pauser: self.pauser(),
            canon_types,
            plan,
            extents,
            code: Mutex::new(HashMap::new()),
        }))
    }
}

/// Pad `blob` with `INT3` to the next 16-byte boundary, so every entry
/// starts aligned (for decoding niceness).
fn align16(blob: &mut Vec<u8>) {
    while !blob.len().is_multiple_of(16) {
        blob.push(asm::INT3);
    }
}

/// Compile every defined function with `params` into one blob: the
/// compile loop of both the initial tier and the background tier-up.
/// Returns the blob, each function's offset in it and the profiler's
/// function ranges. Times each compile into `jit.compile_ns`, counts
/// `jit.compile.count` and the tier's code bytes, and runs the
/// `LB_VERIFY` hook on each function.
fn compile_funcs(params: CompileParams<'_>) -> (Vec<u8>, Vec<usize>, Vec<lb_prof::FuncRange>) {
    let n = params.module.functions.len();
    let mut blob = Vec::new();
    let mut offsets = Vec::with_capacity(n);
    let mut ranges = Vec::with_capacity(n);
    let compile_ns = lb_telemetry::histogram("jit.compile_ns");
    let compile_count = lb_telemetry::counter("jit.compile.count");
    let code_bytes = lb_telemetry::counter(code_bytes_counter(params.opt));
    for di in 0..n {
        let _span = lb_telemetry::span!("jit.compile", di);
        let t0 = lb_telemetry::clock::now_ns();
        let (code, pc_map) = compile_function_mapped(params, di);
        compile_ns.record(lb_telemetry::clock::now_ns().saturating_sub(t0));
        if crate::verifier::mode() != crate::verifier::VerifyMode::Off {
            crate::verifier::verify_emitted(&params, di, &code);
        }
        compile_count.inc();
        code_bytes.add(code.len() as u64);
        ranges.push(lb_prof::FuncRange {
            func_index: di as u32,
            start: blob.len() as u32,
            end: (blob.len() + code.len()) as u32,
            pc_map,
        });
        offsets.push(blob.len());
        blob.extend_from_slice(&code);
        align16(&mut blob);
    }
    (blob, offsets, ranges)
}

fn canonical_type_ids(module: &Module) -> Vec<usize> {
    let mut ids = Vec::with_capacity(module.types.len());
    for (i, ty) in module.types.iter().enumerate() {
        let id = module.types.iter().position(|t| t == ty).unwrap_or(i);
        ids.push(id);
    }
    ids
}

impl JitModule {
    fn compile_all(
        &self,
        strategy: BoundsStrategy,
        opt: OptLevel,
        funcptrs: &FuncPtrs,
    ) -> (Vec<u8>, Vec<usize>, Vec<usize>, Vec<lb_prof::FuncRange>) {
        let params = CompileParams {
            module: &self.module,
            metas: &self.meta.funcs,
            strategy,
            opt,
            safepoints: self.profile.safepoints,
            funcptrs_base: funcptrs.base_addr(),
            plans: self.plan.as_deref(),
            guardopt: self.profile.guardopt,
            limit_extents: &self.extents,
        };
        let ni = self.module.num_imported_funcs() as usize;
        let (mut blob, func_offsets, func_ranges) = compile_funcs(params);
        // Import thunks (so tables can hold imports).
        let mut import_offsets = Vec::with_capacity(ni);
        for ii in 0..ni {
            let ty = self.module.func_type(ii as u32).expect("import type");
            let code = gen_import_thunk(ii as u32, ty);
            import_offsets.push(blob.len());
            blob.extend_from_slice(&code);
            align16(&mut blob);
        }
        (blob, func_offsets, import_offsets, func_ranges)
    }

    fn strategy_code(&self, strategy: BoundsStrategy) -> Arc<StrategyCode> {
        let mut map = self.code.lock().unwrap();
        if let Some(sc) = map.get(&strategy) {
            return Arc::clone(sc);
        }
        let ni = self.module.num_imported_funcs() as usize;
        let nf = self.module.num_funcs() as usize;
        let funcptrs = FuncPtrs::new(nf);

        let (mut blob, func_offsets, import_offsets, func_ranges) =
            self.compile_all(strategy, self.profile.opt, &funcptrs);

        // Entry trampolines, one per defined function.
        let mut tramp_offsets = Vec::with_capacity(self.module.functions.len());
        for di in 0..self.module.functions.len() {
            let fi = ni + di;
            let ty = self.module.func_type(fi as u32).expect("defined type");
            let code = gen_trampoline(ty, funcptrs.entry_addr(fi));
            tramp_offsets.push(blob.len());
            blob.extend_from_slice(&code);
            align16(&mut blob);
        }

        let buf = Arc::new(CodeBuf::publish(&blob).expect("publish code"));
        register_prof_region(&buf, &blob, strategy, self.profile.opt, func_ranges);
        for (di, off) in func_offsets.iter().enumerate() {
            funcptrs.set(ni + di, buf.addr(*off));
        }
        for (ii, off) in import_offsets.iter().enumerate() {
            funcptrs.set(ii, buf.addr(*off));
        }
        let trampolines: Vec<usize> = tramp_offsets.iter().map(|o| buf.addr(*o)).collect();

        let sc = Arc::new(StrategyCode {
            bufs: Mutex::new(vec![buf]),
            funcptrs,
            trampolines,
            tiered_up: AtomicU32::new(0),
        });
        map.insert(strategy, Arc::clone(&sc));
        sc
    }

    /// Kick off the V8-style background recompilation.
    fn spawn_tier_up(&self, strategy: BoundsStrategy, sc: Arc<StrategyCode>) {
        if !self.profile.tiered || sc.tiered_up.swap(1, Ordering::AcqRel) != 0 {
            return;
        }
        let module = self.module.clone();
        let metas = self.meta.clone();
        let safepoints = self.profile.safepoints;
        let target = OptLevel::Full;
        let plan = self.plan.clone();
        let guardopt = self.profile.guardopt;
        let extents = self.extents.clone();
        std::thread::Builder::new()
            .name("lb-tierup".into())
            .spawn(move || {
                let _span = lb_telemetry::span!("jit.tierup", module.functions.len());
                let ni = module.num_imported_funcs() as usize;
                let (blob, offsets, func_ranges) = compile_funcs(CompileParams {
                    module: &module,
                    metas: &metas.funcs,
                    strategy,
                    opt: target,
                    safepoints,
                    funcptrs_base: sc.funcptrs.base_addr(),
                    plans: plan.as_deref(),
                    guardopt,
                    limit_extents: &extents,
                });
                let buf = Arc::new(CodeBuf::publish(&blob).expect("publish tier-up code"));
                register_prof_region(&buf, &blob, strategy, target, func_ranges);
                // Swap function pointers; running activations finish on the
                // old code, future calls use the optimized tier.
                for (di, off) in offsets.iter().enumerate() {
                    sc.funcptrs.set(ni + di, buf.addr(*off));
                }
                lb_telemetry::counter("jit.tierup.count").inc();
                sc.bufs.lock().unwrap().push(buf);
            })
            .expect("spawn tier-up thread");
    }
}

impl LoadedModule for JitModule {
    fn instantiate(
        &self,
        config: &MemoryConfig,
        linker: &Linker,
    ) -> Result<Box<dyn Instance>, LoadError> {
        // Instantiation latency is the pool's headline metric: pooled
        // linear-memory reuse should collapse this histogram's tail.
        let t0 = std::time::Instant::now();
        // `self` is always held in an Arc by the engine API.
        let parts = build_instance_parts(&self.module, config, linker)?;
        // Compile for the strategy the memory actually ended up with: if
        // construction degraded along the fallback chain (uffd → mprotect
        // → trap), code generated for the requested strategy would not
        // match the memory's protection scheme (e.g. raw guard-page
        // accesses over a software-checked memory).
        let effective = parts
            .memory
            .as_ref()
            .map(|m| m.strategy())
            .unwrap_or(config.strategy);
        let sc = self.strategy_code(effective);
        self.spawn_tier_up(effective, Arc::clone(&sc));

        let host_sigs: Vec<FuncType> = self
            .module
            .imports
            .iter()
            .map(|imp| self.module.types[imp.type_idx as usize].clone())
            .collect();

        let table: Box<[TableEntry]> = parts
            .table
            .iter()
            .map(|slot| match slot {
                Some(fi) => TableEntry {
                    func_idx: *fi as usize,
                    type_id: self.canon_types
                        [self.module.func_type_idx(*fi).expect("elem type") as usize],
                },
                None => TableEntry {
                    func_idx: usize::MAX,
                    type_id: usize::MAX,
                },
            })
            .collect();

        let globals: Box<[u64]> = parts.globals.into_boxed_slice();

        let mut inner = Box::new(InstanceInner {
            memory: parts.memory,
            host: parts.host,
            host_sigs,
            pauser: self.pauser.clone(),
        });

        let mut limit_extents = [0usize; crate::runtime::N_LIMIT_SLOTS];
        for (slot, &e) in self.extents.iter().enumerate() {
            limit_extents[slot] = e as usize;
        }
        let mut ctx = Box::new(VmCtx {
            mem_base: inner
                .memory
                .as_ref()
                .map(|m| m.base())
                .unwrap_or(std::ptr::null_mut()),
            mem_size: inner.memory.as_ref().map(|m| m.committed()).unwrap_or(0),
            globals: globals.as_ptr() as *mut u64,
            table: table.as_ptr(),
            table_len: table.len(),
            stack_limit: 0,
            instance: &mut *inner,
            pause_flag: self
                .pauser
                .as_ref()
                .map(|p| p.flag_ptr())
                .unwrap_or(std::ptr::null()),
            mem_limits: [0; crate::runtime::N_LIMIT_SLOTS],
            limit_extents,
        });
        ctx.refresh_limits();

        let mut inst = JitInstance {
            module_name_cache: HashMap::new(),
            module: self.module.clone(),
            sc,
            inner,
            ctx,
            globals,
            table,
            canon: self.canon_types.clone(),
        };

        if let Some(start) = self.module.start {
            inst.invoke_idx(start, &[]).map_err(LoadError::Start)?;
        }
        lb_telemetry::histogram("jit.instantiate_ns").record(t0.elapsed().as_nanos() as u64);
        Ok(Box::new(inst))
    }
}

/// A live JIT instance.
pub struct JitInstance {
    module: Module,
    module_name_cache: HashMap<String, u32>,
    sc: Arc<StrategyCode>,
    inner: Box<InstanceInner>,
    ctx: Box<VmCtx>,
    globals: Box<[u64]>,
    table: Box<[TableEntry]>,
    canon: Vec<usize>,
}

// SAFETY: all raw pointers in ctx point into boxes owned by this struct;
// the instance is used from one thread at a time (`&mut self`).
unsafe impl Send for JitInstance {}

impl std::fmt::Debug for JitInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitInstance")
            .field("globals", &self.globals.len())
            .field("table", &self.table.len())
            .finish()
    }
}

impl JitInstance {
    fn invoke_idx(&mut self, fi: u32, args: &[Value]) -> Result<Option<Value>, Trap> {
        let _ = &self.canon;
        let ni = self.module.num_imported_funcs();
        if fi < ni {
            return Err(Trap::new(TrapKind::Host(
                "cannot invoke an imported function directly".into(),
            )));
        }
        let ty = self
            .module
            .func_type(fi)
            .map_err(|e| Trap::new(TrapKind::Host(e.to_string())))?
            .clone();
        if ty.params.len() != args.len() {
            return Err(Trap::new(TrapKind::Host(format!(
                "expected {} arguments, got {}",
                ty.params.len(),
                args.len()
            ))));
        }
        for (p, a) in ty.params.iter().zip(args) {
            if a.ty() != *p {
                return Err(Trap::new(TrapKind::Host(format!(
                    "argument type mismatch: expected {p}, got {}",
                    a.ty()
                ))));
            }
        }
        let mut bits = [0u64; 16];
        for (i, a) in args.iter().enumerate() {
            bits[i] = a.to_bits();
        }
        let mut ret: u64 = 0;

        let tramp_addr = self.sc.trampolines[(fi - ni) as usize];
        // SAFETY: the trampoline was generated for exactly this signature
        // shape (ctx, args, ret) and the code buffer outlives the call.
        let tramp: extern "C" fn(*mut VmCtx, *const u64, *mut u64) =
            unsafe { std::mem::transmute(tramp_addr) };

        // Stack limit: a fixed budget below the current stack pointer.
        let marker = 0u8;
        self.ctx.stack_limit = (&marker as *const u8 as usize).saturating_sub(WASM_STACK_BUDGET);
        if let Some(m) = self.inner.memory.as_ref() {
            self.ctx.mem_size = m.committed();
            self.ctx.refresh_limits();
        }

        let ctx_ptr: *mut VmCtx = &mut *self.ctx;
        let args_ptr = bits.as_ptr();
        let ret_ptr: *mut u64 = &mut ret;
        catch_traps(move || {
            tramp(ctx_ptr, args_ptr, ret_ptr);
            Ok(())
        })?;

        Ok(ty.result().map(|t| Value::from_bits(t, ret)))
    }
}

impl Instance for JitInstance {
    fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
        let fi = if let Some(&fi) = self.module_name_cache.get(name) {
            fi
        } else {
            let fi = self.module.exported_func(name).ok_or_else(|| {
                Trap::new(TrapKind::Host(format!("no exported function {name:?}")))
            })?;
            self.module_name_cache.insert(name.to_string(), fi);
            fi
        };
        self.invoke_idx(fi, args)
    }

    fn memory(&self) -> Option<&LinearMemory> {
        self.inner.memory.as_ref()
    }
}

// ── trampoline / thunk generation ────────────────────────────────────────

const INT_ARGS: [Reg; 6] = [Reg::RDI, Reg::RSI, Reg::RDX, Reg::RCX, Reg::R8, Reg::R9];

/// `extern "C" fn(ctx: *mut VmCtx, args: *const u64, ret: *mut u64)` that
/// enters the wasm calling convention (r15 = ctx, r14 = mem base, args in
/// registers) and routes through the function-pointer table so tier-up
/// applies to exports too.
fn gen_trampoline(ty: &FuncType, funcptr_entry_addr: usize) -> Vec<u8> {
    let mut a = Asm::new();
    for r in [Reg::RBP, Reg::RBX, Reg::R12, Reg::R13, Reg::R14, Reg::R15] {
        a.push(r);
    }
    a.push(Reg::RDX); // ret pointer (7th push: aligns rsp to 16 at call)
    a.mov_rr(W::W64, Reg::R15, Reg::RDI);
    a.mov_rm(W::W64, Reg::R14, Mem::base(Reg::R15, ctx_off::MEM_BASE));

    // Float args first, then int args with RSI (the array pointer) last.
    let mut fi = 0usize;
    let mut int_loads: Vec<(Reg, i32)> = Vec::new();
    for (i, p) in ty.params.iter().enumerate() {
        match p {
            ValType::F32 | ValType::F64 => {
                a.fload(true, Xmm(fi as u8), Mem::base(Reg::RSI, i as i32 * 8));
                fi += 1;
            }
            ValType::I32 | ValType::I64 => {
                int_loads.push((INT_ARGS[int_loads.len()], i as i32 * 8));
            }
        }
    }
    int_loads.sort_by_key(|(r, _)| if *r == Reg::RSI { 1 } else { 0 });
    for (r, off) in int_loads {
        a.mov_rm(W::W64, r, Mem::base(Reg::RSI, off));
    }

    a.mov_ri64(Reg::R11, funcptr_entry_addr as i64);
    a.call_m(Mem::base(Reg::R11, 0));

    a.pop(Reg::RDX);
    match ty.result() {
        Some(ValType::I32 | ValType::I64) => a.mov_mr(W::W64, Mem::base(Reg::RDX, 0), Reg::RAX),
        Some(ValType::F32 | ValType::F64) => a.fstore(true, Mem::base(Reg::RDX, 0), Xmm(0)),
        None => {}
    }
    for r in [Reg::R15, Reg::R14, Reg::R13, Reg::R12, Reg::RBX, Reg::RBP] {
        a.pop(r);
    }
    a.ret();
    a.finish()
}

/// A thunk with the wasm calling convention that forwards to the host-call
/// helper, so function tables may contain imported functions.
fn gen_import_thunk(import_idx: u32, ty: &FuncType) -> Vec<u8> {
    let mut a = Asm::new();
    a.push(Reg::RBP);
    a.mov_rr(W::W64, Reg::RBP, Reg::RSP);
    let n = ty.params.len().max(1);
    let frame = ((n * 8 + 15) & !15) as i32;
    a.sub_ri(W::W64, Reg::RSP, frame);
    // Store args descending from rbp-8 (matching the helper's contract:
    // arg i at base - 8i).
    let mut ii = 0usize;
    let mut fi = 0usize;
    for (i, p) in ty.params.iter().enumerate() {
        let m = Mem::base(Reg::RBP, -8 * (1 + i as i32));
        match p {
            ValType::I32 | ValType::I64 => {
                a.mov_mr(W::W64, m, INT_ARGS[ii]);
                ii += 1;
            }
            ValType::F32 | ValType::F64 => {
                a.fstore(true, m, Xmm(fi as u8));
                fi += 1;
            }
        }
    }
    a.mov_rr(W::W64, Reg::RDI, Reg::R15);
    a.mov_ri32(Reg::RSI, import_idx as i32);
    a.lea(W::W64, Reg::RDX, Mem::base(Reg::RBP, -8));
    a.xor_rr(W::W32, Reg::RCX, Reg::RCX);
    a.mov_ri64(
        Reg::R11,
        crate::runtime::lb_jit_host as *const () as usize as i64,
    );
    a.call_r(Reg::R11);
    match ty.result() {
        Some(ValType::I32 | ValType::I64) => {
            a.mov_rm(W::W64, Reg::RAX, Mem::base(Reg::RBP, -8));
        }
        Some(ValType::F32 | ValType::F64) => {
            a.fload(true, Xmm(0), Mem::base(Reg::RBP, -8));
        }
        None => {}
    }
    a.mov_rr(W::W64, Reg::RSP, Reg::RBP);
    a.pop(Reg::RBP);
    a.ret();
    a.finish()
}
