//! # lb-jit — a baseline x86-64 JIT for WebAssembly
//!
//! The compiling-runtime substrate of the *Leaps and bounds* reproduction:
//! a Liftoff-style single-pass JIT with three engine profiles modeling the
//! paper's runtimes — `wavm` (full optimization at load), `wasmtime`
//! (register allocation, no extra passes), and `v8` (baseline tier +
//! background optimizing recompile + periodic stop-the-world pauses).
//! Bounds-checking strategies are emitted as real instruction sequences
//! (see [`codegen`]), and hardware traps resolve through `lb-core`'s
//! signal machinery.
#![warn(missing_docs)]
pub mod asm;
pub mod codebuf;
pub mod codegen;
pub mod dataflow;
pub mod engine;
pub mod runtime;
pub mod verifier;

pub use codegen::OptLevel;
pub use engine::{JitEngine, JitProfile};
