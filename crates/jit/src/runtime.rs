//! The JIT's runtime contract: the `VmCtx` block pinned in `r15`, the
//! function-pointer table (indirected so the tiering thread can swap code
//! under running instances), and the `extern "C"` helpers generated code
//! calls for memory growth, host imports, trapping conversions, and the
//! NaN-sensitive float operations.

use lb_core::exec::{HostCtx, HostFn};
use lb_core::signals::raise_trap;
use lb_core::{LinearMemory, TrapKind};
use lb_wasm::numeric::{self, NumError};
use lb_wasm::{Module, Value};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Field offsets of [`VmCtx`], shared with the code generator.
pub mod ctx_off {
    /// `mem_base: *mut u8`.
    pub const MEM_BASE: i32 = 0;
    /// `mem_size: usize` (bytes currently accessible).
    pub const MEM_SIZE: i32 = 8;
    /// `globals: *mut u64`.
    pub const GLOBALS: i32 = 16;
    /// `table: *const TableEntry`.
    pub const TABLE: i32 = 24;
    /// `table_len: usize`.
    pub const TABLE_LEN: i32 = 32;
    /// `stack_limit: usize`.
    pub const STACK_LIMIT: i32 = 40;
    /// `instance: *mut InstanceInner`.
    pub const INSTANCE: i32 = 48;
    /// `pause_flag: *const AtomicU32` (null when safepoints are inactive).
    pub const PAUSE_FLAG: i32 = 56;
    /// `mem_limits: [usize; N_LIMIT_SLOTS]` — per-module fused-guard
    /// limits. Slot `i` holds `mem_size - (limit_extents[i] - 1)`
    /// (saturating at 0), so a fused check is the single instruction pair
    /// `cmp addr, [r15 + MEM_LIMITS + 8*i]; jae trap`: not-taken iff
    /// `addr < mem_size - extent + 1` iff `addr + extent <= mem_size`.
    pub const MEM_LIMITS: i32 = 64;
    /// `limit_extents: [usize; N_LIMIT_SLOTS]` — the extent each limit
    /// slot was derived from (0 for unused slots). Kept in the ctx so the
    /// limits can be recomputed whenever `mem_size` changes.
    pub const LIMIT_EXTENTS: i32 = 64 + 8 * super::N_LIMIT_SLOTS as i32;
}

/// Number of fused-guard limit slots in [`VmCtx`]:
/// [`crate::dataflow::module_extents`] selects at most this many distinct
/// guard extents per module.
pub const N_LIMIT_SLOTS: usize = 8;

/// The per-instance context block. JIT code keeps its address in `r15`
/// and the memory base in `r14`.
#[repr(C)]
#[derive(Debug)]
pub struct VmCtx {
    /// Linear-memory base (the 8 GiB reservation).
    pub mem_base: *mut u8,
    /// Currently accessible bytes; reloaded by software bounds checks and
    /// updated by the grow helper.
    pub mem_size: usize,
    /// Global values as raw bits.
    pub globals: *mut u64,
    /// Function table entries.
    pub table: *const TableEntry,
    /// Number of table entries.
    pub table_len: usize,
    /// Stack-overflow guard: trap when `rsp` drops below this.
    pub stack_limit: usize,
    /// Backpointer for helpers.
    pub instance: *mut InstanceInner,
    /// Safepoint flag polled at loop back-edges (V8 profile), or null.
    pub pause_flag: *const AtomicU32,
    /// Fused-guard limits: `mem_size - (limit_extents[i] - 1)`, saturating
    /// at 0 (an always-trapping limit when the memory is smaller than the
    /// extent). Refreshed alongside `mem_size`.
    pub mem_limits: [usize; N_LIMIT_SLOTS],
    /// The guard extent each limit slot serves (0 = unused slot; its limit
    /// is never loaded by generated code).
    pub limit_extents: [usize; N_LIMIT_SLOTS],
}

impl VmCtx {
    /// Recompute every fused-guard limit from the current `mem_size`.
    /// Called at instantiation, after `memory.grow`, and whenever the
    /// engine refreshes `mem_size` before an invoke.
    pub fn refresh_limits(&mut self) {
        for i in 0..N_LIMIT_SLOTS {
            let e = self.limit_extents[i];
            self.mem_limits[i] = self.mem_size.saturating_sub(e.saturating_sub(1));
        }
    }
}

/// One function-table slot: a function index (or `usize::MAX` when
/// uninitialized) plus the interned signature id checked by
/// `call_indirect`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct TableEntry {
    /// Function index into the module's function-pointer table.
    pub func_idx: usize,
    /// Signature id (the module's type index — types are interned).
    pub type_id: usize,
}

/// The state helpers need, reachable from the ctx.
pub struct InstanceInner {
    /// The module, shared with every other instance of it (its import
    /// types marshal host calls).
    pub module: Arc<Module>,
    /// The instance's memory (present if the module declares one).
    pub memory: Option<LinearMemory>,
    /// Resolved host imports.
    pub host: Vec<HostFn>,
    /// The engine's pauser, kept alive while instances exist.
    pub pauser: Option<Arc<Pauser>>,
}

impl std::fmt::Debug for InstanceInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceInner")
            .field("memory", &self.memory.is_some())
            .field("imports", &self.host.len())
            .finish()
    }
}

/// The module's function-pointer table: one atomic entry per function in
/// the index space. Calls go through this table, so the tiering thread can
/// upgrade code mid-run by swapping pointers (how V8 replaces baseline
/// code with optimized code).
#[derive(Debug)]
pub struct FuncPtrs {
    ptrs: Box<[AtomicUsize]>,
}

impl FuncPtrs {
    /// A table of `n` null entries.
    pub fn new(n: usize) -> Arc<FuncPtrs> {
        Arc::new(FuncPtrs {
            ptrs: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        })
    }

    /// Address of entry `i` (embedded as an immediate by the codegen).
    pub fn entry_addr(&self, i: usize) -> usize {
        &self.ptrs[i] as *const AtomicUsize as usize
    }

    /// Base address of the table (entry 0).
    pub fn base_addr(&self) -> usize {
        self.ptrs.as_ptr() as usize
    }

    /// Current code address of function `i`.
    pub fn get(&self, i: usize) -> usize {
        self.ptrs[i].load(Ordering::Acquire)
    }

    /// Publish new code for function `i`.
    pub fn set(&self, i: usize, addr: usize) {
        self.ptrs[i].store(addr, Ordering::Release);
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.ptrs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ptrs.is_empty()
    }
}

/// The V8-profile "garbage collector": a background thread that
/// periodically sets the safepoint flag and holds worker threads paused
/// for a short window, reproducing the stop-the-world pauses the paper
/// blames for V8's poor 16-thread scaling (§4.1.1, §4.2.1).
#[derive(Debug)]
pub struct Pauser {
    flag: AtomicU32,
    gate: Mutex<bool>,
    cv: Condvar,
    stop: AtomicU32,
    period: std::time::Duration,
    pause_len: std::time::Duration,
}

impl Pauser {
    /// Start a pauser pausing for `pause_len` every `period`.
    pub fn start(period: std::time::Duration, pause_len: std::time::Duration) -> Arc<Pauser> {
        let p = Arc::new(Pauser {
            flag: AtomicU32::new(0),
            gate: Mutex::new(false),
            cv: Condvar::new(),
            stop: AtomicU32::new(0),
            period,
            pause_len,
        });
        let p2 = Arc::clone(&p);
        std::thread::Builder::new()
            .name("lb-gc-pauser".into())
            .spawn(move || p2.run())
            .expect("spawn pauser");
        p
    }

    /// The flag address stored in `VmCtx::pause_flag`.
    pub fn flag_ptr(&self) -> *const AtomicU32 {
        &self.flag
    }

    fn run(&self) {
        let pause_ns = lb_telemetry::histogram("jit.gc_pause_ns");
        while self.stop.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(self.period);
            if self.stop.load(Ordering::Relaxed) != 0 {
                break;
            }
            // Stop the world…
            let t0 = lb_telemetry::clock::now_ns();
            {
                let mut g = self.gate.lock().expect("pauser gate");
                *g = true;
                self.flag.store(1, Ordering::Release);
            }
            std::thread::sleep(self.pause_len);
            // …and release it.
            {
                let mut g = self.gate.lock().expect("pauser gate");
                *g = false;
                self.flag.store(0, Ordering::Release);
                self.cv.notify_all();
            }
            pause_ns.record(lb_telemetry::clock::now_ns().saturating_sub(t0));
        }
    }

    /// Block the calling worker while the pause window is open.
    pub fn park(&self) {
        let mut g = self.gate.lock().expect("pauser gate");
        while *g {
            g = self.cv.wait(g).expect("pauser wait");
        }
    }

    /// Ask the background thread to exit (it does so within one period).
    pub fn shutdown(&self) {
        self.stop.store(1, Ordering::Relaxed);
    }
}

impl Drop for Pauser {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ── extern "C" helpers called from generated code ────────────────────────

fn num_trap_kind(e: NumError) -> TrapKind {
    match e {
        NumError::DivByZero => TrapKind::IntegerDivByZero,
        NumError::Overflow => TrapKind::IntegerOverflow,
        NumError::InvalidConversion => TrapKind::InvalidConversion,
    }
}

/// `memory.grow`: returns the old page count or −1.
///
/// # Safety
/// `ctx` must point at the live `VmCtx` of the running instance. Only
/// generated code calls this, passing its pinned context register.
pub unsafe extern "C" fn lb_jit_grow(ctx: *mut VmCtx, delta: u32) -> i32 {
    // SAFETY: ctx is the live VmCtx of the running instance.
    unsafe {
        let inner = &*(*ctx).instance;
        let Some(mem) = inner.memory.as_ref() else {
            return -1;
        };
        let r = mem.grow(delta);
        (*ctx).mem_size = mem.committed();
        (*ctx).refresh_limits();
        r.map(|p| p as i32).unwrap_or(-1)
    }
}

/// Host import dispatch. `args` points at the *highest-addressed* argument
/// slot; argument `i` lives at `args - i` (the JIT's canonical stack grows
/// downward). The result (if any) is written back to `*args` — which is
/// exactly the slot the value lands on in wasm terms.
///
/// # Safety
/// `ctx` must point at the live `VmCtx` of the running instance,
/// `import_idx` must name one of its host imports, and `args` must point
/// at the highest of at least as many writable slots as that import has
/// parameters (and at least one). Only generated code calls this.
pub unsafe extern "C" fn lb_jit_host(
    ctx: *mut VmCtx,
    import_idx: u32,
    args: *mut u64,
    _reserved: usize,
) {
    // SAFETY: ctx/instance live; args points into the caller's frame with
    // at least `params.len()` slots.
    unsafe {
        let inner = &*(*ctx).instance;
        let module = &*inner.module;
        let sig = &module.types[module.imports[import_idx as usize].type_idx as usize];
        let mut vals = [Value::I32(0); 16];
        let n = sig.params.len();
        assert!(n <= 16, "host imports limited to 16 parameters");
        for (i, &p) in sig.params.iter().enumerate() {
            vals[i] = Value::from_bits(p, *args.offset(-(i as isize)));
        }
        let f = inner.host[import_idx as usize].clone();
        let mut hctx = HostCtx {
            memory: inner.memory.as_ref(),
        };
        match f(&mut hctx, &vals[..n]) {
            Ok(Some(v)) if sig.result() == Some(v.ty()) => {
                *args = v.to_bits();
            }
            Ok(None) if sig.result().is_none() => {}
            Ok(_) => {
                drop(f);
                raise_trap(
                    TrapKind::Host("host function returned wrong type".into()),
                    0,
                )
            }
            Err(t) => {
                let kind = t.kind().clone();
                drop(t);
                drop(f);
                raise_trap(kind, 0)
            }
        }
    }
}

/// Safepoint slow path: park while the pauser's window is open.
///
/// # Safety
/// `ctx` must point at the live `VmCtx` of the running instance. Only
/// generated code calls this, from a safepoint poll.
pub unsafe extern "C" fn lb_jit_pause(ctx: *mut VmCtx) {
    // SAFETY: ctx/instance live.
    unsafe {
        if let Some(p) = (*(*ctx).instance).pauser.as_ref() {
            p.park();
        }
    }
}

macro_rules! trunc_helper {
    ($name:ident, $from:ty, $to:ty, $f:path) => {
        /// Trapping float→int truncation helper.
        pub extern "C" fn $name(v: $from) -> $to {
            match $f(f64::from(v)) {
                Ok(x) => x as $to,
                Err(e) => raise_trap(num_trap_kind(e), 0),
            }
        }
    };
}

trunc_helper!(lb_i32_trunc_f32_s, f32, i32, numeric::trunc_f_to_i32_s);
trunc_helper!(lb_i32_trunc_f32_u, f32, u32, numeric::trunc_f_to_i32_u);
trunc_helper!(lb_i32_trunc_f64_s, f64, i32, numeric::trunc_f_to_i32_s);
trunc_helper!(lb_i32_trunc_f64_u, f64, u32, numeric::trunc_f_to_i32_u);
trunc_helper!(lb_i64_trunc_f32_s, f32, i64, numeric::trunc_f_to_i64_s);
trunc_helper!(lb_i64_trunc_f32_u, f32, u64, numeric::trunc_f_to_i64_u);
trunc_helper!(lb_i64_trunc_f64_s, f64, i64, numeric::trunc_f_to_i64_s);
trunc_helper!(lb_i64_trunc_f64_u, f64, u64, numeric::trunc_f_to_i64_u);

/// wasm f64.min.
pub extern "C" fn lb_f64_min(a: f64, b: f64) -> f64 {
    numeric::wasm_fmin(a, b)
}

/// wasm f64.max.
pub extern "C" fn lb_f64_max(a: f64, b: f64) -> f64 {
    numeric::wasm_fmax(a, b)
}

/// wasm f32.min.
pub extern "C" fn lb_f32_min(a: f32, b: f32) -> f32 {
    numeric::wasm_fmin(a, b)
}

/// wasm f32.max.
pub extern "C" fn lb_f32_max(a: f32, b: f32) -> f32 {
    numeric::wasm_fmax(a, b)
}

/// wasm f64.copysign.
pub extern "C" fn lb_f64_copysign(a: f64, b: f64) -> f64 {
    a.copysign(b)
}

/// wasm f32.copysign.
pub extern "C" fn lb_f32_copysign(a: f32, b: f32) -> f32 {
    a.copysign(b)
}

/// u64 → f64 conversion (no single SSE2 instruction does this correctly).
pub extern "C" fn lb_f64_convert_u64(v: u64) -> f64 {
    v as f64
}

/// u64 → f32 conversion.
pub extern "C" fn lb_f32_convert_u64(v: u64) -> f32 {
    v as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_offsets_match_layout() {
        use std::mem::offset_of;
        assert_eq!(offset_of!(VmCtx, mem_base), ctx_off::MEM_BASE as usize);
        assert_eq!(offset_of!(VmCtx, mem_size), ctx_off::MEM_SIZE as usize);
        assert_eq!(offset_of!(VmCtx, globals), ctx_off::GLOBALS as usize);
        assert_eq!(offset_of!(VmCtx, table), ctx_off::TABLE as usize);
        assert_eq!(offset_of!(VmCtx, table_len), ctx_off::TABLE_LEN as usize);
        assert_eq!(
            offset_of!(VmCtx, stack_limit),
            ctx_off::STACK_LIMIT as usize
        );
        assert_eq!(offset_of!(VmCtx, instance), ctx_off::INSTANCE as usize);
        assert_eq!(offset_of!(VmCtx, pause_flag), ctx_off::PAUSE_FLAG as usize);
        assert_eq!(offset_of!(VmCtx, mem_limits), ctx_off::MEM_LIMITS as usize);
        assert_eq!(
            offset_of!(VmCtx, limit_extents),
            ctx_off::LIMIT_EXTENTS as usize
        );
        assert_eq!(std::mem::size_of::<TableEntry>(), 16);
    }

    #[test]
    fn limits_track_mem_size() {
        let mut ctx = VmCtx {
            mem_base: std::ptr::null_mut(),
            mem_size: 65536,
            globals: std::ptr::null_mut(),
            table: std::ptr::null(),
            table_len: 0,
            stack_limit: 0,
            instance: std::ptr::null_mut(),
            pause_flag: std::ptr::null(),
            mem_limits: [0; N_LIMIT_SLOTS],
            limit_extents: [0; N_LIMIT_SLOTS],
        };
        ctx.limit_extents[0] = 4;
        ctx.limit_extents[1] = 68; // static offset 64 + 4-byte access
        ctx.limit_extents[2] = 1 << 20; // larger than the memory
        ctx.refresh_limits();
        // addr < limit  ⟺  addr + extent <= mem_size
        assert_eq!(ctx.mem_limits[0], 65536 - 3);
        assert_eq!(ctx.mem_limits[1], 65536 - 67);
        assert_eq!(ctx.mem_limits[2], 0); // always-trap
        assert_eq!(ctx.mem_limits[3], 65536); // unused slot: extent 0
                                              // The boundary addresses themselves.
        assert!((65536 - 4) < ctx.mem_limits[0]); // last in-bounds word
        assert!((65536 - 3) >= ctx.mem_limits[0]); // first OOB word
    }

    #[test]
    fn funcptrs_swap() {
        let t = FuncPtrs::new(3);
        assert_eq!(t.len(), 3);
        t.set(1, 0x1234);
        assert_eq!(t.get(1), 0x1234);
        assert_eq!(t.get(0), 0);
        assert!(t.entry_addr(1) == t.base_addr() + 8);
    }

    #[test]
    fn pauser_pauses_and_releases() {
        let p = Pauser::start(
            std::time::Duration::from_millis(5),
            std::time::Duration::from_millis(5),
        );
        // Wait until a pause window opens, then park through it.
        let start = std::time::Instant::now();
        while p.flag.load(Ordering::Acquire) == 0 {
            if start.elapsed() > std::time::Duration::from_secs(2) {
                panic!("pauser never fired");
            }
            std::hint::spin_loop();
        }
        p.park(); // must return once the window closes
        p.shutdown();
    }

    #[test]
    fn trunc_helpers_work() {
        assert_eq!(lb_i32_trunc_f64_s(-3.7), -3);
        assert_eq!(lb_i32_trunc_f32_u(3.7), 3);
        assert_eq!(lb_i64_trunc_f64_u(1e18), 1_000_000_000_000_000_000);
        // Trapping path is exercised via catch_traps.
        let e =
            lb_core::catch_traps(|| -> Result<i32, lb_core::Trap> { Ok(lb_i32_trunc_f64_s(1e99)) })
                .unwrap_err();
        assert_eq!(*e.kind(), TrapKind::InvalidConversion);
    }

    #[test]
    fn u64_float_conversions() {
        assert_eq!(lb_f64_convert_u64(u64::MAX), u64::MAX as f64);
        assert_eq!(lb_f32_convert_u64(1 << 40), (1u64 << 40) as f32);
    }
}
