//! Verification findings and per-function reports.

use std::fmt;

/// What a finding is about. Every variant describes a way the emitted code
/// could violate (or could no longer be proven to uphold) the linear-memory
/// sandbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The code failed to decode as the JIT's instruction vocabulary.
    Decode {
        /// Decoder error text.
        reason: String,
    },
    /// A branch rel32 does not land on an instruction boundary inside the
    /// function.
    BadBranchTarget {
        /// Byte offset the branch resolves to.
        target: i64,
    },
    /// An instruction writes a register the JIT reserves (`r14` = memory
    /// base, `r15` = vmctx, or `rbp` outside the frame idiom).
    WritesReservedReg {
        /// Register name.
        reg: &'static str,
    },
    /// A store targets the vmctx block (`[r15 + ..]`), which function
    /// bodies never write (it holds `mem_size` — the bound every trap
    /// check compares against).
    WritesVmCtx,
    /// The abstract interpretation failed to reach a fixpoint within the
    /// iteration budget.
    NoConvergence,
    /// The machine code performs a different number of linear-memory
    /// accesses than the wasm body implies.
    AccessCountMismatch {
        /// Sites implied by the wasm body (in codegen order).
        expected: usize,
        /// `r14`-based operands found in the machine code.
        found: usize,
    },
    /// An access operand has the wrong shape for its wasm site (width,
    /// scale, displacement, or load/store direction).
    AccessShape {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A reachable access with no dominating guard, clamp, or static proof
    /// covering it.
    UnguardedAccess {
        /// Why no proof applies.
        detail: String,
    },
    /// A guard-region access whose worst-case effective address exceeds
    /// the reservation headroom.
    OffsetExceedsHeadroom {
        /// Worst-case `index + disp + size`.
        max_ea: u64,
        /// Reservation size in bytes.
        reserve: u64,
    },
    /// The plan marks the site statically out of bounds, so the JIT must
    /// have routed control to the trap stub — yet the access is reachable.
    StaticOobReachable,
    /// A plan-elided check whose proof no longer re-checks.
    BadElisionProof {
        /// Which obligation failed.
        detail: String,
    },
}

/// One verifier finding, attributed to a defined function and a byte
/// offset into its emitted code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Defined-function index (import-relative) the finding is in.
    pub func: usize,
    /// Byte offset into the function's code where the problem is anchored.
    pub offset: usize,
    /// What is wrong.
    pub kind: FindingKind,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "func {} at +{:#x}: ", self.func, self.offset)?;
        match &self.kind {
            FindingKind::Decode { reason } => write!(f, "undecodable code: {reason}"),
            FindingKind::BadBranchTarget { target } => {
                write!(f, "branch target {target:#x} is not an instruction start")
            }
            FindingKind::WritesReservedReg { reg } => {
                write!(f, "writes reserved register {reg}")
            }
            FindingKind::WritesVmCtx => write!(f, "stores into the vmctx block"),
            FindingKind::NoConvergence => write!(f, "abstract interpretation did not converge"),
            FindingKind::AccessCountMismatch { expected, found } => {
                write!(
                    f,
                    "expected {expected} linear-memory accesses, found {found}"
                )
            }
            FindingKind::AccessShape { detail } => write!(f, "access shape mismatch: {detail}"),
            FindingKind::UnguardedAccess { detail } => {
                write!(f, "unproven linear-memory access: {detail}")
            }
            FindingKind::OffsetExceedsHeadroom { max_ea, reserve } => write!(
                f,
                "worst-case effective address {max_ea:#x} exceeds the {reserve:#x}-byte reservation"
            ),
            FindingKind::StaticOobReachable => {
                write!(f, "statically-OOB site is reachable in the machine code")
            }
            FindingKind::BadElisionProof { detail } => {
                write!(f, "elision proof does not re-check: {detail}")
            }
        }
    }
}

/// Verification result for one compiled function.
#[derive(Debug, Clone, Default)]
pub struct FuncReport {
    /// Linear-memory access sites examined.
    pub sites_checked: u64,
    /// Sites proven safe by a guard executed at the site (or by the guard
    /// region / a static bound).
    pub proven_guarded: u64,
    /// Sites proven safe by an *earlier* check (a plan elision, or a
    /// covering guard that ran before the site), with the proof
    /// re-checked.
    pub proven_elided: u64,
    /// Fast-loop-body sites proven safe by a loop-preheader guard whose
    /// machine fact dominates the access (mirrors `jit.checks.hoisted`).
    pub proven_hoisted: u64,
    /// Fused compare-and-trap sites proven exact against the limit-table
    /// extent the verifier recomputed (mirrors `jit.checks.fused`).
    pub proven_fused: u64,
    /// Everything that could not be proven.
    pub findings: Vec<Finding>,
}

impl FuncReport {
    /// Fold another report into this one.
    pub fn merge(&mut self, other: FuncReport) {
        self.sites_checked += other.sites_checked;
        self.proven_guarded += other.proven_guarded;
        self.proven_elided += other.proven_elided;
        self.proven_hoisted += other.proven_hoisted;
        self.proven_fused += other.proven_fused;
        self.findings.extend(other.findings);
    }
}
