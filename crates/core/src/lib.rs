//! # lb-core — bounds-checked linear memory and trap machinery
//!
//! The primary contribution of the *Leaps and bounds* paper (IISWC 2022) is
//! an analysis of WebAssembly bounds-checking strategies and a
//! `userfaultfd`-based alternative to the `mprotect` scheme production
//! runtimes use. This crate implements all of it, for real, on Linux/x86-64:
//!
//! * the five strategies — [`BoundsStrategy`]: `none`, `clamp`, `trap`,
//!   `mprotect`, `uffd` — over 8 GiB virtual reservations
//!   ([`LinearMemory`]);
//! * hardware trap recovery (SIGSEGV/SIGBUS/SIGILL/SIGFPE →
//!   [`Trap`]) via [`signals::catch_traps`];
//! * the `userfaultfd(2)` SIGBUS fast path with in-handler
//!   `UFFDIO_ZEROPAGE` ([`uffd`]);
//! * the paper's lock-free, hazard-pointer-based arena registry
//!   ([`registry`]);
//! * the engine-neutral execution API ([`exec`]) that the interpreter and
//!   JIT engines implement and the benchmark harness drives.
//!
//! ## Example: a uffd-backed memory trapping on out-of-bounds access
//!
//! ```rust
//! use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig};
//! use lb_core::signals::catch_traps;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let strategy = if lb_core::uffd::sigbus_mode_available() {
//!     BoundsStrategy::Uffd
//! } else {
//!     BoundsStrategy::Mprotect // CI fallback
//! };
//! let config = MemoryConfig::new(strategy, 1, 16).with_reserve(32 * 65536);
//! let memory = LinearMemory::new(&config)?;
//!
//! // In-bounds access: lazily populated, reads zero.
//! let v = catch_traps(|| memory.load::<u64>(128, 0))?;
//! assert_eq!(v, 0);
//!
//! // Out-of-bounds access: a hardware fault, surfaced as a wasm trap.
//! let err = catch_traps(|| memory.load::<u8>(10 * 65536, 0)).unwrap_err();
//! assert_eq!(*err.kind(), lb_core::TrapKind::OutOfBounds);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod memory;
pub mod pool;
pub mod region;
pub mod registry;
pub mod signals;
pub mod stats;
pub mod strategy;
pub mod trap;
pub mod uffd;

pub use exec::{Engine, HostCtx, HostFn, Instance, Linker, LoadError, LoadedModule};
pub use memory::{LinearMemory, MemoryError, Pod, WASM_PAGE};
pub use pool::MemoryPoolConfig;
pub use signals::catch_traps;
pub use strategy::{BoundsStrategy, MemoryConfig, DEFAULT_RESERVE_BYTES};
pub use trap::{Trap, TrapKind};

/// Serializes this crate's unit tests that make or count memory
/// syscalls and faults: the [`stats`] tallies and the telemetry counters
/// are process-wide, so a sibling test's syscalls would move another
/// test's deltas.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
