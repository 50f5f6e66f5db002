//! Hardware trap handling: SIGSEGV/SIGBUS/SIGILL/SIGFPE recovery for
//! guard-page bounds checking, and the userfaultfd SIGBUS fast path.
//!
//! The design mirrors production wasm runtimes (and the paper's patches):
//!
//! 1. [`catch_traps`] saves a tiny recovery context (stack pointer + resume
//!    address; callee-saved registers are parked on the stack below it) and
//!    invokes the wasm computation through an assembly trampoline.
//! 2. A process-wide signal handler classifies faults: a SIGBUS inside a
//!    `uffd` arena below the committed size is resolved *in the handler*
//!    with `UFFDIO_ZEROPAGE` (the paper's SIGBUS mode, §2.3.1, avoiding the
//!    context switches of the poll mode); any fault inside a registered
//!    arena or JIT code region becomes a wasm [`Trap`]; anything else is
//!    chained to the previously-installed handler.
//! 3. A wasm trap is delivered by rewriting the signal ucontext so that
//!    `sigreturn` resumes at the recovery address with the trap code in
//!    `rax` — a longjmp implemented via the kernel, never unwinding Rust
//!    frames from inside a signal handler.
//!
//! Only Linux/x86-64 is supported, like the paper's evaluation this
//! reproduction targets (the paper: "we will focus on POSIX OSes,
//! specifically on Linux").

use crate::registry::{HazardId, ARENAS, CODE_REGIONS};
use crate::stats;
use crate::strategy::BoundsStrategy;
use crate::trap::{Trap, TrapKind};
use crate::uffd;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Recovery context: stack pointer and resume address inside the trampoline.
#[repr(C)]
#[derive(Debug)]
struct JmpBuf {
    rsp: u64,
    rip: u64,
}

/// Per-invocation trap frame; frames nest for reentrant wasm calls.
#[repr(C)]
#[derive(Debug)]
struct TrapFrame {
    jmp: JmpBuf,
    prev: *mut TrapFrame,
    fault_addr: usize,
    /// Timestamp the signal handler took on trap delivery, so
    /// [`catch_traps`] can attribute trap-entry→resume latency.
    trap_t0_ns: u64,
}

std::arch::global_asm!(
    ".text",
    ".globl lb_trap_catch",
    ".hidden lb_trap_catch",
    ".type lb_trap_catch,@function",
    // u64 lb_trap_catch(JmpBuf* rdi, void (*rsi)(void*), void* rdx)
    // Returns 0 on normal completion, or the trap code if the signal
    // handler redirected execution to the resume label.
    "lb_trap_catch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8", // realign: callee entry must have rsp % 16 == 8
    "mov qword ptr [rdi], rsp",
    "lea rax, [rip + 2f]",
    "mov qword ptr [rdi + 8], rax",
    "mov rdi, rdx",
    "call rsi",
    "xor eax, eax",
    "2:", // trap resume: rax holds the trap code (or 0 on fallthrough)
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size lb_trap_catch, . - lb_trap_catch",
);

std::arch::global_asm!(
    ".text",
    ".globl lb_trap_resume",
    ".hidden lb_trap_resume",
    ".type lb_trap_resume,@function",
    // !: lb_trap_resume(JmpBuf* rdi, u64 code rsi) — longjmp to the
    // recovery context with the trap code in rax. Used by runtime helpers
    // (called from JIT code) that need to raise a wasm trap without
    // unwinding.
    "lb_trap_resume:",
    "mov rsp, qword ptr [rdi]",
    "mov rax, rsi",
    "jmp qword ptr [rdi + 8]",
    ".size lb_trap_resume, . - lb_trap_resume",
);

extern "C" {
    fn lb_trap_catch(jmp: *mut JmpBuf, f: unsafe extern "C" fn(*mut u8), arg: *mut u8) -> u64;
    fn lb_trap_resume(jmp: *const JmpBuf, code: u64) -> !;
}

/// Raise a wasm trap from a runtime helper invoked by JIT-compiled code,
/// transferring control to the innermost [`catch_traps`] on this thread.
///
/// Frames between the helper and the recovery point are abandoned without
/// running destructors; callers must not hold locks or own heap state when
/// raising (the JIT's helpers satisfy this by construction).
///
/// # Panics
/// Panics if no `catch_traps` frame is active on this thread.
pub fn raise_trap(kind: TrapKind, fault_addr: usize) -> ! {
    let frame = CURRENT_FRAME.with(|c| c.get());
    assert!(!frame.is_null(), "raise_trap outside catch_traps: {kind}");
    // SAFETY: frame points at this thread's live recovery context.
    unsafe {
        (*frame).fault_addr = fault_addr;
        lb_trap_resume(&(*frame).jmp, u64::from(kind.code()));
    }
}

thread_local! {
    static CURRENT_FRAME: Cell<*mut TrapFrame> = const { Cell::new(std::ptr::null_mut()) };
    static ARENA_HAZARD: Cell<Option<HazardId>> = const { Cell::new(None) };
    static CODE_HAZARD: Cell<Option<HazardId>> = const { Cell::new(None) };
    /// Registry slot that resolved this thread's previous uffd fault.
    /// A streaming kernel faults into the same arena thousands of times
    /// in a row; probing the remembered slot first turns the handler's
    /// registry scan into a single load. Purely a hint: stale values are
    /// re-validated by the hazard protocol inside `find_with_hint`.
    static LAST_ARENA_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static THREAD_STATE: std::cell::RefCell<Option<ThreadState>> =
        const { std::cell::RefCell::new(None) };
}

/// Per-thread signal resources: the alternate signal stack and hazard slots.
/// Dropped (and released) at thread exit.
struct ThreadState {
    altstack: *mut libc::c_void,
    altstack_len: usize,
    arena_hazard: HazardId,
    code_hazard: HazardId,
}

// SAFETY: the raw pointer is only used by this thread.
unsafe impl Send for ThreadState {}

impl Drop for ThreadState {
    fn drop(&mut self) {
        // Disable the alternate stack before freeing it.
        // SAFETY: disabling with SS_DISABLE is always valid.
        unsafe {
            let ss = libc::stack_t {
                ss_sp: std::ptr::null_mut(),
                ss_flags: libc::SS_DISABLE,
                ss_size: 0,
            };
            libc::sigaltstack(&ss, std::ptr::null_mut());
            libc::munmap(self.altstack, self.altstack_len);
        }
        ARENAS.release_hazard(self.arena_hazard);
        CODE_REGIONS.release_hazard(self.code_hazard);
        ARENA_HAZARD.with(|c| c.set(None));
        CODE_HAZARD.with(|c| c.set(None));
    }
}

const ALTSTACK_SIZE: usize = 256 * 1024;

/// Saved previous dispositions, for chaining non-wasm faults.
static OLD_ACTIONS: OldActions = OldActions::new();

struct OldActions {
    // Indexed by signal number; written once under `INSTALL`.
    cells: [std::cell::UnsafeCell<Option<libc::sigaction>>; 32],
}

// SAFETY: written only once during handler installation (guarded by Once),
// read-only afterwards, including from signal handlers.
unsafe impl Sync for OldActions {}

impl OldActions {
    const fn new() -> OldActions {
        OldActions {
            cells: [const { std::cell::UnsafeCell::new(None) }; 32],
        }
    }

    /// # Safety
    /// Only callable during the `Once`-guarded installation.
    unsafe fn set(&self, sig: i32, act: libc::sigaction) {
        *self.cells[sig as usize].get() = Some(act);
    }

    /// # Safety
    /// Only callable after installation completed.
    unsafe fn get(&self, sig: i32) -> Option<libc::sigaction> {
        *self.cells[sig as usize].get()
    }
}

static INSTALL: Once = Once::new();
static HANDLED_SIGNALS: [i32; 4] = [libc::SIGSEGV, libc::SIGBUS, libc::SIGILL, libc::SIGFPE];

/// Pre-interned span name for uffd fault service, so the SIGBUS handler
/// can push ring records without touching the (mutex-guarded) interner.
static UFFD_FAULT_SPAN: std::sync::OnceLock<lb_telemetry::SpanId> = std::sync::OnceLock::new();

/// Pre-interned span covering every trap-handler entry → exit, so
/// profiles show time spent in signal delivery itself (arg = signal
/// number). Recorded the same signal-safe way as `uffd.fault`.
static SIGNAL_HANDLER_SPAN: std::sync::OnceLock<lb_telemetry::SpanId> = std::sync::OnceLock::new();

/// Install the process-wide wasm trap handlers (idempotent).
pub fn install_handlers() {
    INSTALL.call_once(|| {
        // Register every instrument the handler records into *before* it
        // can run: registration takes locks, increments don't.
        stats::force_init();
        // Resolve the fault-service window from LB_UFFD_WINDOW in normal
        // context; the handler only does relaxed loads of the cached value.
        uffd::init_window_from_env();
        let _ = UFFD_FAULT_SPAN.set(lb_telemetry::register_span_name("uffd.fault"));
        let _ = SIGNAL_HANDLER_SPAN.set(lb_telemetry::register_span_name("signal.handler"));
        for &sig in &HANDLED_SIGNALS {
            // SAFETY: standard sigaction installation; handler is
            // async-signal-safe by construction.
            unsafe {
                let mut act: libc::sigaction = std::mem::zeroed();
                act.sa_sigaction = trap_handler
                    as unsafe extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void)
                    as usize;
                act.sa_flags = libc::SA_SIGINFO | libc::SA_ONSTACK;
                libc::sigemptyset(&mut act.sa_mask);
                let mut old: libc::sigaction = std::mem::zeroed();
                if libc::sigaction(sig, &act, &mut old) == 0 {
                    OLD_ACTIONS.set(sig, old);
                }
            }
        }
    });
}

/// Prepare the calling thread for wasm execution: alternate signal stack
/// and hazard slots. Idempotent and cheap after the first call.
pub fn ensure_thread_ready() {
    THREAD_STATE.with(|st| {
        let mut st = st.borrow_mut();
        if st.is_some() {
            return;
        }
        install_handlers();
        // Create this thread's telemetry ring now (TLS first-touch and
        // registration are not async-signal-safe), so the SIGBUS fast
        // path below may push span records into it.
        lb_telemetry::ensure_thread_ring();
        // SAFETY: fresh anonymous mapping for the alternate stack.
        let stack = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                ALTSTACK_SIZE,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(stack != libc::MAP_FAILED, "failed to map sigaltstack");
        // SAFETY: valid stack_t pointing at our fresh mapping.
        unsafe {
            let ss = libc::stack_t {
                ss_sp: stack,
                ss_flags: 0,
                ss_size: ALTSTACK_SIZE,
            };
            libc::sigaltstack(&ss, std::ptr::null_mut());
        }
        let arena_hazard = ARENAS.claim_hazard();
        let code_hazard = CODE_REGIONS.claim_hazard();
        ARENA_HAZARD.with(|c| c.set(Some(arena_hazard)));
        CODE_HAZARD.with(|c| c.set(Some(code_hazard)));
        *st = Some(ThreadState {
            altstack: stack,
            altstack_len: ALTSTACK_SIZE,
            arena_hazard,
            code_hazard,
        });
    });
}

/// Run `f`, converting any wasm hardware fault (guard-page hit, JIT `ud2`
/// trap, division fault) into an `Err(Trap)`.
///
/// Nested use is supported (wasm calling host calling wasm). If `f` panics,
/// the panic propagates normally.
///
/// Frames skipped by a hardware trap do **not** run destructors; callers
/// keep engine state in pooled storage that is reset on the next call (the
/// same contract production runtimes use for JIT frames).
///
/// # Errors
/// Returns the trap raised by `f`, whether delivered in software (the
/// closure's own `Err`) or through the signal path.
pub fn catch_traps<R, F: FnOnce() -> Result<R, Trap>>(f: F) -> Result<R, Trap> {
    ensure_thread_ready();

    struct CallState<F, R> {
        f: Option<F>,
        out: Option<std::thread::Result<Result<R, Trap>>>,
    }

    unsafe extern "C" fn shim<F: FnOnce() -> Result<R, Trap>, R>(arg: *mut u8) {
        // SAFETY: arg points at the CallState on the caller's stack.
        let st = unsafe { &mut *(arg as *mut CallState<F, R>) };
        let f = st.f.take().expect("closure present");
        st.out = Some(catch_unwind(AssertUnwindSafe(f)));
    }

    let mut state: CallState<F, R> = CallState {
        f: Some(f),
        out: None,
    };
    let mut frame = TrapFrame {
        jmp: JmpBuf { rsp: 0, rip: 0 },
        prev: CURRENT_FRAME.with(|c| c.get()),
        fault_addr: 0,
        trap_t0_ns: 0,
    };
    let prev = frame.prev;
    CURRENT_FRAME.with(|c| c.set(&mut frame));
    // SAFETY: the trampoline calls `shim::<F, R>` exactly once with our
    // state pointer; on a trap the handler resumes the trampoline's resume
    // label with a nonzero code in rax, which unwinds no Rust frames.
    let code = unsafe {
        lb_trap_catch(
            &mut frame.jmp,
            shim::<F, R>,
            &mut state as *mut _ as *mut u8,
        )
    };
    CURRENT_FRAME.with(|c| c.set(prev));
    let result = if code == 0 {
        match state.out.expect("closure ran") {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    } else {
        stats::count_signal_trap();
        if frame.trap_t0_ns != 0 {
            // Trap-entry→resume latency: from the timestamp the signal
            // handler wrote into the frame to our return from the
            // trampoline (paper §4: the cost of one signal round-trip).
            let dur = lb_telemetry::clock::now_ns().saturating_sub(frame.trap_t0_ns);
            stats::record_trap_latency(dur);
        }
        Err(Trap::from_signal(code as u32, frame.fault_addr))
    };
    // Count bounds checks that actually fired at runtime, whichever path
    // delivered them (software `Err` from an engine's check, or a hardware
    // fault) — the dynamic complement of the static elision counters.
    // This runs in normal context after the trampoline returned, so the
    // counter's one-time registration lock is safe here.
    if let Err(t) = &result {
        if *t.kind() == TrapKind::OutOfBounds {
            dynamic_oob_counter().inc();
        }
    }
    result
}

/// Counter of bounds violations observed at runtime (cached — counter
/// registration takes a lock; this path runs per trap, not per access).
fn dynamic_oob_counter() -> lb_telemetry::Counter {
    static C: std::sync::OnceLock<lb_telemetry::Counter> = std::sync::OnceLock::new();
    *C.get_or_init(|| lb_telemetry::counter("checks.dynamic_oob"))
}

/// Global count of faults chained to previous handlers (diagnostics).
static CHAINED: AtomicUsize = AtomicUsize::new(0);

/// Number of faults this process forwarded to pre-existing handlers.
pub fn chained_fault_count() -> usize {
    CHAINED.load(Ordering::Relaxed)
}

const REG_RAX: usize = libc::REG_RAX as usize;
const REG_RSP: usize = libc::REG_RSP as usize;
const REG_RIP: usize = libc::REG_RIP as usize;

unsafe extern "C" fn trap_handler(
    sig: libc::c_int,
    info: *mut libc::siginfo_t,
    ctx: *mut libc::c_void,
) {
    // Preserve errno: the interrupted code may be inspecting it.
    let saved_errno = unsafe { *libc::__errno_location() };
    let t0 = lb_telemetry::clock::now_ns();
    unsafe { trap_handler_inner(sig, info, ctx) };
    // Entry → exit latency span (signal-safe: pre-interned id, atomic
    // ring push). Handlers that redirect rather than return normally
    // (deliver_or_chain) still pass through here.
    if let Some(&id) = SIGNAL_HANDLER_SPAN.get() {
        let dur = lb_telemetry::clock::now_ns().wrapping_sub(t0);
        lb_telemetry::record_span_raw(id, sig as u64, t0, dur);
    }
    unsafe { *libc::__errno_location() = saved_errno };
}

unsafe fn trap_handler_inner(sig: libc::c_int, info: *mut libc::siginfo_t, ctx: *mut libc::c_void) {
    let uc = unsafe { &mut *(ctx as *mut libc::ucontext_t) };
    let fault_addr = unsafe { (*info).si_addr() } as usize;
    let si_code = unsafe { (*info).si_code };
    let rip = uc.uc_mcontext.gregs[REG_RIP] as usize;

    let arena_hazard = ARENA_HAZARD.with(|c| c.get());
    let code_hazard = CODE_HAZARD.with(|c| c.get());

    // 1. userfaultfd SIGBUS fast path: populate missing-but-committed pages
    //    from inside the handler, then retry the faulting instruction.
    if sig == libc::SIGBUS {
        if let Some(h) = arena_hazard {
            let hint = LAST_ARENA_SLOT.with(|c| c.get());
            let found = ARENAS.find_with_hint(
                h,
                hint,
                |a| a.strategy == BoundsStrategy::Uffd && a.contains(fault_addr),
                |a| {
                    let off = fault_addr - a.base;
                    let committed = a.committed.load(Ordering::Acquire);
                    if off < committed {
                        let fd = a.uffd_fd.load(Ordering::Acquire);
                        // Time the in-handler service of a legal fault
                        // (SIGBUS entry → zeropage done); everything
                        // recorded is a pre-registered atomic slot.
                        let t0 = lb_telemetry::clock::now_ns();
                        let action = uffd::zeropage_around(fd, a, committed, off);
                        let dur = lb_telemetry::clock::now_ns().saturating_sub(t0);
                        stats::record_uffd_service(dur);
                        if let Some(&id) = UFFD_FAULT_SPAN.get() {
                            lb_telemetry::record_span_raw(id, off as u64, t0, dur);
                        }
                        action
                    } else {
                        uffd::FaultAction::OutOfBounds
                    }
                },
            );
            match found {
                Some((slot, uffd::FaultAction::Populated)) => {
                    LAST_ARENA_SLOT.with(|c| c.set(slot));
                    return; // retry access
                }
                Some((_, uffd::FaultAction::OutOfBounds)) => {
                    deliver_or_chain(sig, info, uc, TrapKind::OutOfBounds.code(), fault_addr);
                    return;
                }
                None => {} // not a uffd arena; keep classifying
            }
        }
    }

    // 2. Guard-page OOB: fault address inside any registered arena.
    if sig == libc::SIGSEGV || sig == libc::SIGBUS {
        let in_arena = arena_hazard
            .map(|h| {
                ARENAS
                    .find_with(h, |a| a.contains(fault_addr), |_| ())
                    .is_some()
            })
            .unwrap_or(false);
        if in_arena {
            deliver_or_chain(sig, info, uc, TrapKind::OutOfBounds.code(), fault_addr);
            return;
        }
    }

    // 3. JIT trap stubs: SIGILL at a `ud2; .byte code` site, or SIGFPE from
    //    a division instruction, inside registered code.
    if sig == libc::SIGILL || sig == libc::SIGFPE {
        let in_code = code_hazard
            .map(|h| {
                CODE_REGIONS
                    .find_with(h, |c| c.contains(rip), |_| ())
                    .is_some()
            })
            .unwrap_or(false);
        if in_code {
            let code = if sig == libc::SIGILL {
                // ud2 is 0F 0B; the JIT appends the trap code byte.
                let p = rip as *const u8;
                // SAFETY: rip is inside a registered, mapped code region.
                if unsafe { p.read() } == 0x0F && unsafe { p.add(1).read() } == 0x0B {
                    u32::from(unsafe { p.add(2).read() })
                } else {
                    TrapKind::Unreachable.code()
                }
            } else if si_code == 2 {
                // FPE_INTOVF
                TrapKind::IntegerOverflow.code()
            } else {
                TrapKind::IntegerDivByZero.code()
            };
            deliver_or_chain(sig, info, uc, code, 0);
            return;
        }
    }

    chain(sig, info, uc);
}

/// Redirect the interrupted context to the recovery frame, or chain if no
/// frame is active on this thread (a wasm fault outside `catch_traps` is a
/// bug, surfaced as a crash under the previous disposition).
unsafe fn deliver_or_chain(
    sig: libc::c_int,
    info: *mut libc::siginfo_t,
    uc: &mut libc::ucontext_t,
    code: u32,
    fault_addr: usize,
) {
    let frame = CURRENT_FRAME.with(|c| c.get());
    if frame.is_null() {
        chain(sig, info, uc);
        return;
    }
    // SAFETY: frame points to the live TrapFrame of this thread's
    // innermost catch_traps invocation.
    let frame = unsafe { &mut *frame };
    frame.fault_addr = fault_addr;
    // Async-signal-safe timestamp (vDSO clock_gettime); read back by
    // catch_traps once the trampoline resumes.
    frame.trap_t0_ns = lb_telemetry::clock::now_ns();
    uc.uc_mcontext.gregs[REG_RSP] = frame.jmp.rsp as i64;
    uc.uc_mcontext.gregs[REG_RIP] = frame.jmp.rip as i64;
    uc.uc_mcontext.gregs[REG_RAX] = i64::from(code);
}

/// Forward a non-wasm fault to the previously-installed handler (or the
/// default action) by reinstalling it and returning; the faulting
/// instruction re-executes and the signal is re-delivered.
unsafe fn chain(sig: libc::c_int, info: *mut libc::siginfo_t, uc: &mut libc::ucontext_t) {
    CHAINED.fetch_add(1, Ordering::Relaxed);
    // SAFETY: OLD_ACTIONS was fully written before handlers were installed.
    let old = unsafe { OLD_ACTIONS.get(sig) };
    match old {
        Some(act) if act.sa_sigaction != libc::SIG_DFL && act.sa_sigaction != libc::SIG_IGN => {
            if act.sa_flags & libc::SA_SIGINFO != 0 {
                // SAFETY: calling the previous SA_SIGINFO handler with our args.
                let f: unsafe extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void) =
                    unsafe { std::mem::transmute(act.sa_sigaction) };
                unsafe { f(sig, info, uc as *mut _ as *mut libc::c_void) };
            } else {
                // SAFETY: calling the previous plain handler.
                let f: unsafe extern "C" fn(libc::c_int) =
                    unsafe { std::mem::transmute(act.sa_sigaction) };
                unsafe { f(sig) };
            }
        }
        _ => {
            // Restore default disposition and let the re-executed fault
            // terminate the process with the right signal.
            // SAFETY: standard signal reset.
            unsafe {
                let mut dfl: libc::sigaction = std::mem::zeroed();
                dfl.sa_sigaction = libc::SIG_DFL;
                libc::sigemptyset(&mut dfl.sa_mask);
                libc::sigaction(sig, &dfl, std::ptr::null_mut());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{Protection, Reservation};
    use crate::registry::ArenaDesc;

    #[test]
    fn normal_completion_passes_through() {
        let _serial = crate::test_lock();
        let r = catch_traps(|| Ok::<_, Trap>(41 + 1)).unwrap();
        assert_eq!(r, 42);
    }

    #[test]
    fn software_trap_passes_through() {
        let _serial = crate::test_lock();
        let e = catch_traps(|| Err::<(), _>(Trap::new(TrapKind::Unreachable))).unwrap_err();
        assert_eq!(*e.kind(), TrapKind::Unreachable);
    }

    #[test]
    fn panic_propagates() {
        let _serial = crate::test_lock();
        let r = std::panic::catch_unwind(|| {
            let _ = catch_traps(|| -> Result<(), Trap> { panic!("boom") });
        });
        assert!(r.is_err());
    }

    #[test]
    fn segv_in_registered_arena_becomes_oob_trap() {
        let _serial = crate::test_lock();
        // A PROT_NONE reservation registered as an arena: touching it must
        // surface as a wasm OOB trap, not a crash.
        let res = Reservation::new(1 << 20, Protection::None).unwrap();
        let base = res.base().as_ptr() as usize;
        let desc = Box::new(ArenaDesc::new(
            base,
            res.len(),
            0,
            BoundsStrategy::Mprotect,
            -1,
        ));
        let (slot, ptr) = ARENAS.register(desc);

        let err = catch_traps(|| -> Result<(), Trap> {
            // SAFETY: intentional fault into the PROT_NONE arena.
            unsafe {
                std::ptr::read_volatile((base + 0x1234) as *const u8);
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(*err.kind(), TrapKind::OutOfBounds);
        assert_eq!(err.fault_addr(), Some(base + 0x1234));

        ARENAS.unregister(slot, ptr);
    }

    #[test]
    fn nested_catch_traps() {
        let _serial = crate::test_lock();
        let res = Reservation::new(1 << 16, Protection::None).unwrap();
        let base = res.base().as_ptr() as usize;
        let desc = Box::new(ArenaDesc::new(
            base,
            res.len(),
            0,
            BoundsStrategy::Mprotect,
            -1,
        ));
        let (slot, ptr) = ARENAS.register(desc);

        let outer = catch_traps(|| -> Result<i32, Trap> {
            let inner = catch_traps(|| -> Result<(), Trap> {
                // SAFETY: intentional fault.
                unsafe {
                    std::ptr::read_volatile(base as *const u8);
                }
                Ok(())
            });
            assert!(inner.is_err());
            Ok(5)
        });
        assert_eq!(outer.unwrap(), 5);
        ARENAS.unregister(slot, ptr);
    }

    #[test]
    fn traps_work_from_many_threads() {
        let _serial = crate::test_lock();
        let res = Reservation::new(1 << 20, Protection::None).unwrap();
        let base = res.base().as_ptr() as usize;
        let desc = Box::new(ArenaDesc::new(
            base,
            res.len(),
            0,
            BoundsStrategy::Mprotect,
            -1,
        ));
        let (slot, ptr) = ARENAS.register(desc);

        std::thread::scope(|s| {
            for t in 0..8usize {
                s.spawn(move || {
                    for i in 0..50 {
                        let e = catch_traps(|| -> Result<(), Trap> {
                            // SAFETY: intentional fault.
                            unsafe {
                                std::ptr::read_volatile((base + t * 4096 + i) as *const u8);
                            }
                            Ok(())
                        })
                        .unwrap_err();
                        assert_eq!(*e.kind(), TrapKind::OutOfBounds);
                    }
                });
            }
        });
        ARENAS.unregister(slot, ptr);
    }
}

#[cfg(test)]
mod raise_tests {
    use super::*;

    #[test]
    fn raise_trap_lands_in_catch() {
        let _serial = crate::test_lock();
        let e = catch_traps(|| -> Result<(), Trap> {
            raise_trap(TrapKind::IntegerDivByZero, 0);
        })
        .unwrap_err();
        assert_eq!(*e.kind(), TrapKind::IntegerDivByZero);
    }

    #[test]
    fn raise_trap_from_nested_helper() {
        let _serial = crate::test_lock();
        fn helper(depth: usize) -> u64 {
            if depth == 0 {
                raise_trap(TrapKind::InvalidConversion, 0x42);
            }
            helper(depth - 1) + 1
        }
        let e = catch_traps(|| -> Result<u64, Trap> { Ok(helper(20)) }).unwrap_err();
        assert_eq!(*e.kind(), TrapKind::InvalidConversion);
        assert_eq!(e.fault_addr(), Some(0x42));
    }
}
