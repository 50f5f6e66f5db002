//! `lb-analysis` — module-level bounds-check elimination.
//!
//! The paper attributes a large share of WebAssembly's overhead to the
//! software bounds checks emitted under the `trap` and `clamp` strategies
//! (§3.1), and surveys how production compilers claw that cost back by
//! proving checks redundant. This crate is that reasoning layer for the
//! reproduction: a forward abstract interpretation over validated wasm
//! function bodies that
//!
//! * computes **interval/stride ranges** for every i32 value, tracking
//!   `local.get`/`const`/`add`/`shl`/`and` provenance symbolically
//!   (`value == (local << shift) + addend`),
//! * reconstructs the **structured control-flow tree** so dominating-check
//!   facts survive joins (an `if/else` both of whose arms inherit a check
//!   keeps it — unlike the JIT's old per-basic-block peephole, which
//!   dropped every fact at every label), and are carried across loop
//!   iterations via a widening/narrowing fixpoint at each loop header
//!   (every visit of a loop, probe or recording, reuses or warm-starts
//!   from its previous header, so each header is computed once per
//!   enclosing probe and the cost grows about as depth³ in a counted nest),
//! * analyzes each function **on its own**: parameters enter at ⊤ and a
//!   call's i32 result is ⊤, whatever the callee,
//! * emits a per-instruction [`CheckKind`] plan (`Emit`, `ElideInBounds`,
//!   `ElideDominated`, `StaticOob`) plus a per-function
//!   access-footprint [`FuncSummary`] (max proven effective address,
//!   minimum memory size that makes the function check-free).
//!
//! # Soundness
//!
//! A check may only be skipped when one of two facts holds for **every**
//! execution reaching the access:
//!
//! * **In-bounds** — the largest possible effective address plus access
//!   width fits inside the module's *declared minimum* memory
//!   (`limits.min` pages). Instances never start smaller than the declared
//!   minimum (`build_instance_parts` floors the initial size there) and
//!   linear memory only grows, so this bound holds for the lifetime of any
//!   instance. Valid under both `trap` and `clamp`.
//! * **Dominated** — an earlier check on the *same provenance*
//!   `(local, shift)` already proved `(local << shift) + addend' + extent'
//!   <= mem_size` with `addend' + extent' >= addend + extent`, and the
//!   local has not been reassigned since. Facts are intersected at joins
//!   (kept only when established on every incoming path) and invalidated
//!   on `local.set`/`local.tee`, so no SSA renaming is needed. Valid under
//!   `trap` always: a passed check is a proof. Under `clamp` a dynamic
//!   dominating check proves nothing — it silently redirects its own
//!   effective address and leaves the local unchanged — so domination is
//!   consumed only when the dominator's coverage was itself *static*
//!   (established by an `ElideInBounds` proof); [`FuncPlan::clamp_elidable`]
//!   exposes exactly that set, and the JIT clamps the rest.
//!
//! `StaticOob` means the *smallest* possible effective address already
//! exceeds the declared maximum memory: the access must trap on every
//! execution that reaches it (under a trapping strategy). The state is
//! dead afterwards.
//!
//! Everything else is `Emit`. The analysis is deliberately conservative:
//! any interval that might wrap 2^32 goes to ⊤, signed comparisons only
//! refine when both sides are provably non-negative, and unmodeled
//! operations produce ⊤.

#![warn(missing_docs)]

use lb_wasm::instr::Instr;
use lb_wasm::types::{BlockType, MAX_PAGES, PAGE_SIZE};
use lb_wasm::validate::{FuncMeta, ModuleMeta};
use lb_wasm::{Module, ValType};
use std::collections::BTreeMap;

const U32_MAX: u64 = u32::MAX as u64;

// ─────────────────────────────────── public API ──────────────────────────

/// The per-access decision the JIT consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Emit the bounds check (the default; also used for unreachable code).
    Emit,
    /// Proven in-bounds against the declared minimum memory size; skip the
    /// check under `trap` *and* `clamp`.
    ElideInBounds,
    /// Covered by a dominating check on the same provenance; skip under
    /// `trap` only — and under `clamp` when the dominating fact was
    /// *static* (see [`FuncPlan::clamp_elidable`]).
    ElideDominated,
    /// Proven out of bounds against the declared maximum memory size; the
    /// access traps unconditionally under trapping strategies.
    StaticOob,
}

/// Knobs for [`analyze_module_with`], all inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisConfig {
    /// Ignored: each function is analyzed on its own, with ⊤ parameters
    /// and ⊤ call results. Kept only so the committed `perfbench`
    /// harness, which sets it, builds unedited.
    pub interprocedural: bool,
    /// Ignored: the analysis synthesizes no loop guards. Kept only so the
    /// committed `perfbench` harness, which sets it, builds unedited.
    pub hoist: bool,
}

/// Per-function access-footprint summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncSummary {
    /// Reachable memory accesses seen by the analysis.
    pub accesses: u32,
    /// Accesses proven in-bounds against the declared minimum memory.
    pub elided_in_bounds: u32,
    /// Accesses covered by a dominating check.
    pub elided_dominated: u32,
    /// Accesses proven statically out of bounds.
    pub static_oob: u32,
    /// Accesses that still need their check.
    pub emitted: u32,
    /// Largest proven end-of-access effective address (`addr + offset +
    /// size`) over all accesses with a bounded address, if any.
    pub max_proven_ea: Option<u64>,
    /// Smallest committed memory size (bytes) at which *every* reachable
    /// access in this function is in bounds — i.e. the size that makes the
    /// function check-free. `None` if some access has an unbounded
    /// address; `Some(0)` if the function performs no accesses.
    pub check_free_min_bytes: Option<u64>,
}

impl FuncSummary {
    /// Fraction of reachable accesses whose check is statically elided
    /// (in-bounds or dominated) under the `trap` strategy.
    pub fn elision_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        f64::from(self.elided_in_bounds + self.elided_dominated) / f64::from(self.accesses)
    }
}

/// The plan for one defined function: a [`CheckKind`] per instruction
/// index (memory accesses only; everything else stays `Emit`) and which
/// dominated accesses stay elidable under `clamp`.
#[derive(Debug, Clone)]
pub struct FuncPlan {
    kinds: Vec<CheckKind>,
    /// pcs of `ElideDominated` accesses whose dominating fact was static
    /// (in-bounds against the declared minimum), sorted.
    clamp_ok: Vec<u32>,
    /// Access-footprint summary.
    pub summary: FuncSummary,
    /// Abstract instruction steps the analysis took: its cost, not part
    /// of the plan.
    steps: u64,
}

impl FuncPlan {
    /// The decision for the instruction at `pc` (indices past the body
    /// conservatively report `Emit`).
    #[inline]
    pub fn kind_at(&self, pc: usize) -> CheckKind {
        self.kinds.get(pc).copied().unwrap_or(CheckKind::Emit)
    }

    /// Whether the `ElideDominated` access at `pc` may also skip its
    /// clamp: its dominating fact was a static in-bounds proof, so the
    /// clamp is the identity on every execution.
    #[inline]
    pub fn clamp_elidable(&self, pc: usize) -> bool {
        u32::try_from(pc).is_ok_and(|pc| self.clamp_ok.binary_search(&pc).is_ok())
    }

    /// Abstract instruction steps the analysis of this function took: a
    /// deterministic work count (every probe and pass, not just the
    /// recording one). Not part of the plan.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

/// The whole-module plan: one [`FuncPlan`] per defined function.
#[derive(Debug, Clone)]
pub struct ModulePlan {
    /// Plans indexed by *defined* function index.
    pub funcs: Vec<FuncPlan>,
    /// Declared minimum memory size in bytes (0 when no memory).
    pub mem_min_bytes: u64,
    /// Declared maximum memory size in bytes (0 when no memory).
    pub mem_max_bytes: u64,
}

impl ModulePlan {
    /// Module totals: `(accesses, elided, emitted, static_oob)`.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0u64, 0u64, 0u64, 0u64);
        for f in &self.funcs {
            t.0 += u64::from(f.summary.accesses);
            t.1 += u64::from(f.summary.elided_in_bounds + f.summary.elided_dominated);
            t.2 += u64::from(f.summary.emitted);
            t.3 += u64::from(f.summary.static_oob);
        }
        t
    }

    /// Always 0: the analysis synthesizes no loop guards. Kept only so
    /// the committed `perfbench` harness, which reports it, builds
    /// unedited.
    pub fn total_hoisted(&self) -> u64 {
        0
    }

    /// Abstract instruction steps the whole analysis took, summed over
    /// functions (see [`FuncPlan::steps`]).
    pub fn steps(&self) -> u64 {
        self.funcs.iter().map(FuncPlan::steps).sum()
    }
}

/// Same as [`analyze_module`]: no field of `cfg` changes the plan. Kept
/// only so the committed `perfbench` harness, which calls it, builds
/// unedited.
pub fn analyze_module_with(
    module: &Module,
    meta: &ModuleMeta,
    _cfg: &AnalysisConfig,
) -> ModulePlan {
    analyze_module(module, meta)
}

/// Analyze every defined function of a validated module. Each function
/// is analyzed once, on its own, with ⊤ parameters; a call's i32 result
/// is ⊤ whatever the callee.
pub fn analyze_module(module: &Module, meta: &ModuleMeta) -> ModulePlan {
    let (mem_min_bytes, mem_max_bytes) = match &module.memory {
        Some(mt) => (
            u64::from(mt.limits.min) * PAGE_SIZE as u64,
            u64::from(mt.limits.max.unwrap_or(MAX_PAGES)) * PAGE_SIZE as u64,
        ),
        None => (0, 0),
    };
    ModulePlan {
        funcs: module
            .functions
            .iter()
            .zip(&meta.funcs)
            .map(|(f, fmeta)| {
                Analyzer::new(module, fmeta, mem_min_bytes, mem_max_bytes).run(&f.body)
            })
            .collect(),
        mem_min_bytes,
        mem_max_bytes,
    }
}

// ─────────────────────────────── abstract domain ─────────────────────────

/// A closed interval of u32 values.
type Part = (u32, u32);

/// Symbolic provenance. When `exact`, `value == (local << shift) + addend`
/// holds over the integers (no wrap anywhere in the chain). When inexact,
/// only the congruence `value ≡ (local << shift) + addend (mod 2^32)`
/// holds (`addend` is kept reduced mod 2^32): enough for
/// [`AbsVal::as_local`], where a zero shift and addend make the
/// congruence an equality, but not for dominating-check facts, which
/// compare checked extents of the runtime (wrapped) value.
/// Either way `addend` fits a u32: an exact addend is a non-negative part
/// of a u32 value, an inexact one is reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sym {
    local: u32,
    addend: u32,
    shift: u8,
    exact: bool,
}

/// Comparison operator of a predicate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    LtS,
    LtU,
    LeS,
    LeU,
    GtS,
    GtU,
    GeS,
    GeU,
    Eq,
    Ne,
}

impl CmpOp {
    /// The operator describing the *false* edge.
    fn inverse(self) -> CmpOp {
        match self {
            CmpOp::LtS => CmpOp::GeS,
            CmpOp::LtU => CmpOp::GeU,
            CmpOp::LeS => CmpOp::GtS,
            CmpOp::LeU => CmpOp::GtU,
            CmpOp::GtS => CmpOp::LeS,
            CmpOp::GtU => CmpOp::LeU,
            CmpOp::GeS => CmpOp::LtS,
            CmpOp::GeU => CmpOp::LtU,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// `a op b` rewritten as `b op' a`.
    fn mirror(self) -> CmpOp {
        match self {
            CmpOp::LtS => CmpOp::GtS,
            CmpOp::LtU => CmpOp::GtU,
            CmpOp::LeS => CmpOp::GeS,
            CmpOp::LeU => CmpOp::GeU,
            CmpOp::GtS => CmpOp::LtS,
            CmpOp::GtU => CmpOp::LtU,
            CmpOp::GeS => CmpOp::LeS,
            CmpOp::GeU => CmpOp::LeU,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

/// One side of a [`Pred`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// A local, read at refinement time (invalidated on reassignment).
    Local(u32),
    /// Any other value: its interval snapshot from compare time.
    Iv(u32, u32),
}

impl Operand {
    fn local(self) -> Option<u32> {
        match self {
            Operand::Local(l) => Some(l),
            Operand::Iv(..) => None,
        }
    }

    /// The operand's interval in `state`.
    fn bounds(self, state: &State) -> (u64, u64) {
        match self {
            Operand::Local(l) => state.locals[l as usize].bounds(),
            Operand::Iv(lo, hi) => (u64::from(lo), u64::from(hi)),
        }
    }
}

/// A comparison a boolean value came from, for branch refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pred {
    op: CmpOp,
    l: Operand,
    r: Operand,
}

impl Pred {
    fn mentions(&self, l: u32) -> bool {
        self.l == Operand::Local(l) || self.r == Operand::Local(l)
    }
}

/// Abstract i32 value: unsigned interval + power-of-two stride +
/// provenance + predicate origin. Non-i32 values ride along as ⊤ (their
/// intervals are never consulted for addresses). Every component is a
/// u32 quantity, stored as one: states are vectors of these, copied on
/// every branch and joined at every merge.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AbsVal {
    lo: u32,
    hi: u32,
    /// log2 of the power of two dividing every possible value (32 for
    /// the constant 0, so `min` works as gcd on the pow2 lattice).
    stride_log2: u8,
    /// Wrapped-interval refinement: when present, the value lies in one of
    /// the two disjoint, ordered sub-intervals (`lo`/`hi` is their hull).
    /// Produced by `add`/`sub` with a constant when the interval wraps
    /// 2^32 (a decrementing induction variable is `(0, s-2)` ∪
    /// `(2^32-1, 2^32-1)`); consumed only by branch refinement, which
    /// intersects the parts against the constraint region set — this is
    /// how a descending loop's `i >= 0` back-edge guard recovers the
    /// bounded part. Every other operation uses the hull and drops it.
    split: Option<(Part, Part)>,
    sym: Option<Sym>,
    pred: Option<Pred>,
}

const _: () = assert!(std::mem::size_of::<AbsVal>() <= 72);

/// Stride exponent of the constant 0 (divisible by any power of two we
/// track).
const STRIDE_LOG2_CAP: u8 = 32;

/// `x` as a u32; every interval end and addend the domain computes in
/// u64 arithmetic is a u32 by construction.
fn narrow(x: u64) -> u32 {
    debug_assert!(x <= U32_MAX, "{x:#x} is not a u32");
    x as u32
}

impl AbsVal {
    fn top() -> AbsVal {
        AbsVal::iv(0, U32_MAX)
    }

    fn cst(v: u32) -> AbsVal {
        AbsVal {
            stride_log2: if v == 0 {
                STRIDE_LOG2_CAP
            } else {
                v.trailing_zeros() as u8
            },
            ..AbsVal::iv(u64::from(v), u64::from(v))
        }
    }

    fn iv(lo: u64, hi: u64) -> AbsVal {
        AbsVal {
            lo: narrow(lo),
            hi: narrow(hi),
            stride_log2: 0,
            split: None,
            sym: None,
            pred: None,
        }
    }

    /// `(lo, hi)` widened for overflow-free arithmetic.
    fn bounds(&self) -> (u64, u64) {
        (u64::from(self.lo), u64::from(self.hi))
    }

    fn as_const(&self) -> Option<u64> {
        (self.lo == self.hi).then_some(u64::from(self.lo))
    }

    /// Trivial provenance `value == local` (shift 0, addend 0). Exactness
    /// is irrelevant at shift 0 / addend 0: two u32s congruent mod 2^32
    /// are equal.
    fn as_local(&self) -> Option<u32> {
        match self.sym {
            Some(Sym {
                local,
                shift: 0,
                addend: 0,
                ..
            }) => Some(local),
            _ => None,
        }
    }

    /// As a predicate operand.
    fn operand(&self) -> Operand {
        match self.as_local() {
            Some(l) => Operand::Local(l),
            None => Operand::Iv(self.lo, self.hi),
        }
    }

    /// The value's parts: the split pair, or the whole interval.
    fn parts(&self) -> Intervals<2> {
        let wide = |(lo, hi): Part| (u64::from(lo), u64::from(hi));
        match self.split {
            Some((a, b)) => Intervals::of(&[wide(a), wide(b)]),
            None => Intervals::of(&[self.bounds()]),
        }
    }
}

/// Up to `N` ordered, disjoint intervals held inline (branch refinement
/// never needs more than four).
#[derive(Clone, Copy)]
struct Intervals<const N: usize> {
    buf: [(u64, u64); N],
    len: usize,
}

impl<const N: usize> Intervals<N> {
    fn of(items: &[(u64, u64)]) -> Intervals<N> {
        let mut out = Intervals {
            buf: [(0, 0); N],
            len: 0,
        };
        for &iv in items {
            out.push(iv);
        }
        out
    }

    fn push(&mut self, iv: (u64, u64)) {
        self.buf[self.len] = iv;
        self.len += 1;
    }

    fn as_slice(&self) -> &[(u64, u64)] {
        &self.buf[..self.len]
    }
}

/// `a ← a ⊔ b`.
fn join_val(a: &mut AbsVal, b: &AbsVal) {
    a.lo = a.lo.min(b.lo);
    a.hi = a.hi.max(b.hi);
    a.stride_log2 = a.stride_log2.min(b.stride_log2);
    // Equal part sets stay (the union is the same set); anything else
    // falls back to the (joined) hull.
    if a.split != b.split {
        a.split = None;
    }
    if a.sym != b.sym {
        a.sym = None;
    }
    if a.pred != b.pred {
        a.pred = None;
    }
}

/// `b ⊑ a`: joining `b` into `a` would leave `a` unchanged.
fn val_covers(a: &AbsVal, b: &AbsVal) -> bool {
    a.lo <= b.lo
        && b.hi <= a.hi
        && a.stride_log2 <= b.stride_log2
        && (a.split.is_none() || a.split == b.split)
        && (a.sym.is_none() || a.sym == b.sym)
        && (a.pred.is_none() || a.pred == b.pred)
}

// Interval arithmetic (wasm i32 semantics). Add/sub with a constant model
// the wrap exactly: a fully-wrapping interval translates, a partially
// wrapping one becomes a two-part split (hull ⊤); everything else that
// might wrap goes to ⊤.

/// `x + c (mod 2^32)` for `x ∈ [lo, hi]`.
fn wrap_add_iv(lo: u64, hi: u64, c: u64) -> AbsVal {
    debug_assert!(c <= U32_MAX && hi <= U32_MAX);
    if hi + c <= U32_MAX {
        AbsVal::iv(lo + c, hi + c) // no wrap
    } else if lo + c > U32_MAX {
        AbsVal::iv(lo + c - (1 << 32), hi + c - (1 << 32)) // all wrap
    } else {
        // Partial wrap: the high (non-wrapping) part and the low (wrapped)
        // part. Hull is ⊤-wide but the split keeps both ends tight.
        AbsVal {
            split: Some(((0, narrow(hi + c - (1 << 32))), (narrow(lo + c), u32::MAX))),
            ..AbsVal::top()
        }
    }
}

fn abs_add(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::cst((x as u32).wrapping_add(y as u32));
    }
    let stride_log2 = a.stride_log2.min(b.stride_log2);
    // Canonicalize to value + const when one side is constant.
    let (v, c) = match (b.as_const(), a.as_const()) {
        (Some(c), _) => (a, Some(c)),
        (_, Some(c)) => (b, Some(c)),
        _ => (a, None),
    };
    let Some(c) = c else {
        let ((alo, ahi), (blo, bhi)) = (a.bounds(), b.bounds());
        if ahi + bhi > U32_MAX {
            return AbsVal::top();
        }
        return AbsVal {
            stride_log2,
            ..AbsVal::iv(alo + blo, ahi + bhi)
        };
    };
    let (vlo, vhi) = v.bounds();
    let wraps = vhi + c > U32_MAX;
    let sym = v.sym.map(|s| {
        let addend = u64::from(s.addend) + c;
        if wraps || !s.exact {
            Sym {
                addend: (addend & U32_MAX) as u32,
                exact: false,
                ..s
            }
        } else {
            Sym {
                addend: narrow(addend),
                ..s
            }
        }
    });
    AbsVal {
        stride_log2,
        sym,
        ..wrap_add_iv(vlo, vhi, c)
    }
}

fn abs_sub(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::cst((x as u32).wrapping_sub(y as u32));
    }
    let stride_log2 = a.stride_log2.min(b.stride_log2);
    let ((alo, ahi), (blo, bhi)) = (a.bounds(), b.bounds());
    if let Some(c) = b.as_const() {
        // a - c == a + (2^32 - c) mod 2^32.
        let sym = a.sym.map(|s| {
            if alo >= c && s.exact && u64::from(s.addend) >= c {
                Sym {
                    addend: narrow(u64::from(s.addend) - c),
                    ..s
                }
            } else {
                Sym {
                    addend: s.addend.wrapping_sub(c as u32),
                    exact: false,
                    ..s
                }
            }
        });
        return AbsVal {
            stride_log2,
            sym,
            ..wrap_add_iv(alo, ahi, ((1u64 << 32) - c) & U32_MAX)
        };
    }
    if alo < bhi {
        return AbsVal::top();
    }
    AbsVal {
        stride_log2,
        ..AbsVal::iv(alo - bhi, ahi - blo)
    }
}

fn abs_mul(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::cst((x as u32).wrapping_mul(y as u32));
    }
    let ((alo, ahi), (blo, bhi)) = (a.bounds(), b.bounds());
    // (2^32-1)^2 < 2^64, so the product fits u64.
    if ahi * bhi > U32_MAX {
        return AbsVal::top();
    }
    AbsVal {
        stride_log2: (a.stride_log2 + b.stride_log2).min(STRIDE_LOG2_CAP),
        ..AbsVal::iv(alo * blo, ahi * bhi)
    }
}

fn abs_and(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::cst((x as u32) & (y as u32));
    }
    // Masking can only clear bits: result <= min(hi_a, mask) and keeps the
    // mask's low-zero-bit stride (the `addr & 0x3FF8`-style idiom).
    let (val, mask) = match (a.as_const(), b.as_const()) {
        (_, Some(m)) => (a, m as u32),
        (Some(m), _) => (b, m as u32),
        _ => return AbsVal::iv(0, u64::from(a.hi.min(b.hi))),
    };
    AbsVal {
        stride_log2: if mask == 0 {
            STRIDE_LOG2_CAP
        } else {
            mask.trailing_zeros() as u8
        },
        ..AbsVal::iv(0, u64::from(val.hi.min(mask)))
    }
}

fn abs_shl(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let Some(k) = b.as_const() else {
        return AbsVal::top();
    };
    let k = (k as u32 & 31) as u8;
    if let Some(x) = a.as_const() {
        return AbsVal::cst((x as u32) << k);
    }
    let (alo, ahi) = a.bounds();
    let sym = a.sym.and_then(|s| {
        (u32::from(s.shift) + u32::from(k) <= 31).then(|| Sym {
            local: s.local,
            shift: s.shift + k,
            addend: s.addend << k,
            // Shifting multiplies both sides of the congruence by 2^k, so
            // it survives mod 2^32 — but a possible wrap loses exactness.
            exact: s.exact && ahi << k <= U32_MAX,
        })
    });
    if ahi << k > U32_MAX {
        // The shift may wrap: hull goes to ⊤, but the (inexact)
        // congruence provenance survives.
        return AbsVal {
            sym,
            ..AbsVal::top()
        };
    }
    AbsVal {
        stride_log2: (a.stride_log2 + k).min(STRIDE_LOG2_CAP),
        sym,
        ..AbsVal::iv(alo << k, ahi << k)
    }
}

fn abs_shr_u(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let Some(k) = b.as_const() else {
        return AbsVal::top();
    };
    let k = k as u32 & 31;
    if let Some(x) = a.as_const() {
        return AbsVal::cst((x as u32) >> k);
    }
    AbsVal {
        stride_log2: a.stride_log2.saturating_sub(k as u8),
        ..AbsVal::iv(u64::from(a.lo >> k), u64::from(a.hi >> k))
    }
}

// ───────────────────────────────── machine state ─────────────────────────

/// A dominating-check fact: the *current* value of `local`, shifted by
/// `shift`, was checked to extent `need` (`(local << shift) + need <=
/// mem_size`), and `is_static` says whether that proof was static
/// (in-bounds against the declared minimum, so it also licenses elision
/// under `clamp`) rather than established by a runtime check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fact {
    local: u32,
    shift: u8,
    is_static: bool,
    need: u64,
}

impl Fact {
    fn key(&self) -> (u32, u8) {
        (self.local, self.shift)
    }
}

/// A relational fact between locals: `a <u b` when `strict`, else `a ≤u
/// b` (unsigned, over the current values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rel {
    a: u32,
    b: u32,
    strict: bool,
}

impl Rel {
    fn key(&self) -> (u32, u32) {
        (self.a, self.b)
    }
}

/// The abstract machine state at one program point.
///
/// The fact sets are short vectors sorted by key (a state carries about
/// one fact on average), so copies are flat memcpys and joins are linear
/// merges. Key order is part of the semantics: [`Analyzer::guard_for`]
/// takes the *first* matching relation.
#[derive(Debug, PartialEq, Default)]
struct State {
    locals: Vec<AbsVal>,
    stack: Vec<AbsVal>,
    /// Dominating-check facts, sorted by `(local, shift)`: per-path truths
    /// preserved by intersection at joins and killed on reassignment.
    checked: Vec<Fact>,
    /// Relational facts, sorted by `(a, b)`. Established by branch
    /// refinement on unsigned (or provably-nonnegative signed) compares
    /// and by exact local-to-local copies; intersected at joins; killed
    /// when either side is reassigned. These power `a - b` narrowing.
    rel: Vec<Rel>,
    live: bool,
}

impl Clone for State {
    fn clone(&self) -> State {
        State {
            locals: self.locals.clone(),
            stack: self.stack.clone(),
            checked: self.checked.clone(),
            rel: self.rel.clone(),
            live: self.live,
        }
    }

    /// Field-wise, so every buffer is reused.
    fn clone_from(&mut self, src: &State) {
        self.locals.clone_from(&src.locals);
        self.stack.clone_from(&src.stack);
        self.checked.clone_from(&src.checked);
        self.rel.clone_from(&src.rel);
        self.live = src.live;
    }
}

impl State {
    /// Strip every fact, provenance, and predicate mentioning local `l`
    /// (called when `l` is reassigned, and by the conservative loop
    /// fallback).
    fn strip_local(&mut self, l: u32) {
        self.checked.retain(|f| f.local != l);
        self.rel.retain(|r| r.a != l && r.b != l);
        for v in self.locals.iter_mut().chain(self.stack.iter_mut()) {
            if v.sym.is_some_and(|s| s.local == l) {
                v.sym = None;
            }
            if v.pred.is_some_and(|p| p.mentions(l)) {
                v.pred = None;
            }
        }
    }

    fn fact(&self, key: (u32, u8)) -> Option<&Fact> {
        self.checked
            .binary_search_by_key(&key, Fact::key)
            .ok()
            .map(|i| &self.checked[i])
    }

    /// Record a dominating-check fact, keeping the largest extent and
    /// upgrading to static when an equal extent is statically proven.
    fn record_fact(&mut self, local: u32, shift: u8, need: u64, is_static: bool) {
        match self
            .checked
            .binary_search_by_key(&(local, shift), Fact::key)
        {
            Ok(i) => {
                let e = &mut self.checked[i];
                if need > e.need {
                    (e.need, e.is_static) = (need, is_static);
                } else if need == e.need {
                    e.is_static |= is_static;
                }
            }
            Err(i) => self.checked.insert(
                i,
                Fact {
                    local,
                    shift,
                    is_static,
                    need,
                },
            ),
        }
    }

    fn relation(&self, a: u32, b: u32) -> Option<bool> {
        self.rel
            .binary_search_by_key(&(a, b), Rel::key)
            .ok()
            .map(|i| self.rel[i].strict)
    }

    /// Record `a <u b` (strict) or `a ≤u b`; strictness only upgrades.
    fn add_rel(&mut self, a: u32, b: u32, strict: bool) {
        if a == b {
            return;
        }
        match self.rel.binary_search_by_key(&(a, b), Rel::key) {
            Ok(i) => self.rel[i].strict |= strict,
            Err(i) => self.rel.insert(i, Rel { a, b, strict }),
        }
    }

    /// Is `a <u b` (`Some(true)`) or `a ≤u b` (`Some(false)`) known,
    /// directly or through one intermediate local?
    fn rel_lt(&self, a: u32, b: u32) -> Option<bool> {
        if let Some(s) = self.relation(a, b) {
            return Some(s);
        }
        let mut best: Option<bool> = None;
        let from = self.rel.partition_point(|r| r.a < a);
        for r in self.rel[from..].iter().take_while(|r| r.a == a) {
            if let Some(s2) = self.relation(r.b, b) {
                let s = r.strict || s2;
                if s || best.is_none() {
                    best = Some(s);
                }
                if s {
                    break;
                }
            }
        }
        best
    }
}

/// Keep the entries of `a` whose key also appears in `b` (both sorted by
/// key), folding each partner into the kept entry with `merge`.
fn intersect_sorted<T, K: Ord>(
    a: &mut Vec<T>,
    b: &[T],
    key: impl Fn(&T) -> K,
    merge: impl Fn(&mut T, &T),
) {
    let mut j = 0;
    a.retain_mut(|x| {
        let k = key(x);
        while j < b.len() && key(&b[j]) < k {
            j += 1;
        }
        let hit = j < b.len() && key(&b[j]) == k;
        if hit {
            merge(x, &b[j]);
            j += 1;
        }
        hit
    });
}

/// Does every entry of `a` have a same-key partner in `b` (both sorted by
/// key) that `ok` accepts?
fn subset_sorted<T, K: Ord>(
    a: &[T],
    b: &[T],
    key: impl Fn(&T) -> K,
    ok: impl Fn(&T, &T) -> bool,
) -> bool {
    let mut j = 0;
    a.iter().all(|x| {
        let k = key(x);
        while j < b.len() && key(&b[j]) < k {
            j += 1;
        }
        j < b.len() && key(&b[j]) == k && ok(x, &b[j])
    })
}

/// `a ← a ⊔ b`, in place. `visit` sees every joined value with its
/// pre-join bounds (the widening hook).
fn join_with(a: &mut State, b: &State, mut visit: impl FnMut(&mut AbsVal, Part)) {
    if !a.live {
        a.clone_from(b);
        return;
    }
    if !b.live {
        return;
    }
    debug_assert_eq!(a.stack.len(), b.stack.len(), "join at equal heights");
    for (xs, ys) in [(&mut a.locals, &b.locals), (&mut a.stack, &b.stack)] {
        xs.truncate(ys.len());
        for (x, y) in xs.iter_mut().zip(ys) {
            let old = (x.lo, x.hi);
            join_val(x, y);
            visit(x, old);
        }
    }
    intersect_sorted(&mut a.checked, &b.checked, Fact::key, |x, y| {
        x.need = x.need.min(y.need);
        x.is_static &= y.is_static;
    });
    intersect_sorted(&mut a.rel, &b.rel, Rel::key, |x, y| x.strict &= y.strict);
}

/// `a ← a ⊔ b`, in place.
fn join_into(a: &mut State, b: &State) {
    join_with(a, b, |_, _| {});
}

/// `b ⊑ a` — does `a` already cover `b`? Exactly "`a ⊔ b == a`", tested
/// field by field without building the join.
fn state_contains(a: &State, b: &State) -> bool {
    if !b.live {
        return true;
    }
    a.live
        && a.locals.len() <= b.locals.len()
        && a.stack.len() <= b.stack.len()
        && a.locals
            .iter()
            .zip(&b.locals)
            .all(|(x, y)| val_covers(x, y))
        && a.stack.iter().zip(&b.stack).all(|(x, y)| val_covers(x, y))
        && subset_sorted(&a.checked, &b.checked, Fact::key, |x, y| {
            x.need <= y.need && (!x.is_static || y.is_static)
        })
        && subset_sorted(&a.rel, &b.rel, Rel::key, |x, y| !x.strict || y.strict)
}

// ─────────────────────────────── structured tree ─────────────────────────

enum Node {
    Plain(u32),
    Block(BlockType, Vec<Node>),
    /// A loop with its header pc (the `Loop` opcode), which keys the
    /// loop-header cache.
    Loop(BlockType, Vec<Node>, u32),
    If(BlockType, Vec<Node>, Vec<Node>),
}

enum Term {
    End,
    Else,
    Eof,
}

fn parse_seq(body: &[Instr], pos: &mut usize) -> (Vec<Node>, Term) {
    let mut out = Vec::new();
    while *pos < body.len() {
        let pc = *pos;
        *pos += 1;
        match &body[pc] {
            Instr::Block(bt) => {
                let (inner, _) = parse_seq(body, pos);
                out.push(Node::Block(*bt, inner));
            }
            Instr::Loop(bt) => {
                let (inner, _) = parse_seq(body, pos);
                out.push(Node::Loop(*bt, inner, pc as u32));
            }
            Instr::If(bt) => {
                let (then_b, t) = parse_seq(body, pos);
                let else_b = if matches!(t, Term::Else) {
                    parse_seq(body, pos).0
                } else {
                    Vec::new()
                };
                out.push(Node::If(*bt, then_b, else_b));
            }
            Instr::Else => return (out, Term::Else),
            Instr::End => return (out, Term::End),
            _ => out.push(Node::Plain(pc as u32)),
        }
    }
    (out, Term::Eof)
}

fn collect_written_locals(nodes: &[Node], body: &[Instr], out: &mut Vec<u32>) {
    for n in nodes {
        match n {
            Node::Plain(pc) => {
                if let Instr::LocalSet(l) | Instr::LocalTee(l) = &body[*pc as usize] {
                    if !out.contains(l) {
                        out.push(*l);
                    }
                }
            }
            Node::Block(_, b) | Node::Loop(_, b, _) => collect_written_locals(b, body, out),
            Node::If(_, t, e) => {
                collect_written_locals(t, body, out);
                collect_written_locals(e, body, out);
            }
        }
    }
}

// ────────────────────────────────── control frames ───────────────────────

struct Frame {
    is_loop: bool,
    entry_height: usize,
    keep: usize,
    /// Forward-branch merge (blocks/ifs).
    merged: Option<State>,
    /// Back-edge merge (loops).
    backedge: Option<State>,
}

// ──────────────────────────────────── analyzer ───────────────────────────

struct Analyzer<'m> {
    module: &'m Module,
    fmeta: &'m FuncMeta,
    body: &'m [Instr],
    mem_min: u64,
    mem_max: u64,
    /// Widening thresholds harvested from the function's i32 constants.
    thresholds: Vec<u32>,
    kinds: Vec<CheckKind>,
    summary: FuncSummary,
    /// Bounded end-of-access EAs, for the footprint summary.
    max_needed: u64,
    any_bounded: bool,
    any_unbounded: bool,
    /// Plan/summary writes happen only on the single recording pass over
    /// each instruction; loop fixpoint probes run with this off.
    recording: bool,
    clamp_ok: Vec<u32>,
    /// Per-loop `(entry, stabilized header)` of the last visit, probe or
    /// recording, keyed by `loop_pc`: warm starts for inner loops.
    loop_cache: BTreeMap<u32, (State, State)>,
    /// Retired states whose buffers [`Analyzer::copy_of`] reuses, so
    /// branches, `if` arms and loop probes copy without allocating.
    spare: Vec<State>,
    /// Abstract `step` calls so far.
    steps: u64,
}

impl<'m> Analyzer<'m> {
    fn new(module: &'m Module, fmeta: &'m FuncMeta, mem_min: u64, mem_max: u64) -> Analyzer<'m> {
        Analyzer {
            module,
            fmeta,
            body: &[],
            mem_min,
            mem_max,
            thresholds: Vec::new(),
            kinds: Vec::new(),
            summary: FuncSummary::default(),
            max_needed: 0,
            any_bounded: false,
            any_unbounded: false,
            recording: true,
            clamp_ok: Vec::new(),
            loop_cache: BTreeMap::new(),
            spare: Vec::new(),
            steps: 0,
        }
    }

    fn run(mut self, body: &'m [Instr]) -> FuncPlan {
        self.body = body;
        self.kinds = vec![CheckKind::Emit; body.len()];
        for i in body {
            if let Instr::I32Const(c) = i {
                let c = *c as u32;
                self.thresholds.push(c);
                self.thresholds.push(c.saturating_add(1));
            }
        }
        self.thresholds.sort_unstable();
        self.thresholds.dedup();

        let n_params = self.fmeta.n_params as usize;
        // Parameters are ⊤; declared locals are zero-initialized,
        // numerically [0, 0] regardless of type.
        let locals = (0..self.fmeta.local_types.len())
            .map(|i| {
                if i < n_params {
                    AbsVal::top()
                } else {
                    AbsVal::cst(0)
                }
            })
            .collect();
        let mut st = State {
            locals,
            live: true,
            ..State::default()
        };

        let mut pos = 0usize;
        let (tree, _) = parse_seq(body, &mut pos);
        let mut frames = vec![Frame {
            is_loop: false,
            entry_height: 0,
            keep: usize::from(self.fmeta.result.is_some()),
            merged: None,
            backedge: None,
        }];
        self.exec_seq(&tree, &mut st, &mut frames, 0);

        self.summary.max_proven_ea = self.any_bounded.then_some(self.max_needed);
        self.summary.check_free_min_bytes = if self.summary.accesses == 0 {
            Some(0)
        } else if self.any_unbounded {
            None
        } else {
            Some(self.max_needed)
        };
        self.clamp_ok.sort_unstable();
        self.clamp_ok.dedup();
        FuncPlan {
            kinds: self.kinds,
            clamp_ok: self.clamp_ok,
            summary: self.summary,
            steps: self.steps,
        }
    }

    // ── state buffers ──────────────────────────────────────────────

    /// A copy of `s`, in a retired state's buffers when one is spare.
    fn copy_of(&mut self, s: &State) -> State {
        match self.spare.pop() {
            Some(mut t) => {
                t.clone_from(s);
                t
            }
            None => s.clone(),
        }
    }

    /// Hand a state's buffers back for reuse.
    fn retire(&mut self, s: State) {
        self.spare.push(s);
    }

    // ── structured execution ───────────────────────────────────────

    fn exec_seq(&mut self, nodes: &[Node], st: &mut State, frames: &mut Vec<Frame>, floor: usize) {
        for n in nodes {
            if !st.live {
                return;
            }
            match n {
                Node::Plain(pc) => self.step(*pc as usize, st, frames, floor),
                Node::Block(bt, inner) => {
                    let eh = st.stack.len();
                    let keep = bt.arity();
                    frames.push(Frame {
                        is_loop: false,
                        entry_height: eh,
                        keep,
                        merged: None,
                        backedge: None,
                    });
                    self.exec_seq(inner, st, frames, floor);
                    let fr = frames.pop().expect("block frame");
                    self.block_exit(st, fr.merged, eh, keep);
                }
                Node::Loop(bt, inner, loop_pc) => {
                    self.exec_loop(*bt, inner, *loop_pc, st, frames, floor)
                }
                Node::If(bt, then_b, else_b) => {
                    self.exec_if(*bt, then_b, else_b, st, frames, floor)
                }
            }
        }
    }

    fn exec_if(
        &mut self,
        bt: BlockType,
        then_b: &[Node],
        else_b: &[Node],
        st: &mut State,
        frames: &mut Vec<Frame>,
        floor: usize,
    ) {
        let cond = st.stack.pop().expect("validated if condition");
        let eh = st.stack.len();
        let keep = bt.arity();
        // `st` itself becomes the else arm.
        let mut then_s = self.copy_of(st);
        // Interval gating: a constant condition kills the untaken arm
        // entirely.
        if cond.hi == 0 {
            then_s.live = false;
        }
        if cond.lo > 0 {
            st.live = false;
        }
        if let Some(p) = cond.pred {
            refine(&mut then_s, &p, true);
            refine(st, &p, false);
        }
        frames.push(Frame {
            is_loop: false,
            entry_height: eh,
            keep,
            merged: None,
            backedge: None,
        });
        if then_s.live {
            self.exec_seq(then_b, &mut then_s, frames, floor);
        }
        if st.live {
            self.exec_seq(else_b, st, frames, floor);
        }
        let fr = frames.pop().expect("if frame");
        // then ⊔ else (⊔ is commutative on live states), then the
        // branches that left the arms early.
        if then_s.live {
            if st.live {
                join_into(st, &then_s);
            } else {
                std::mem::swap(st, &mut then_s);
            }
        }
        self.retire(then_s);
        self.block_exit(st, fr.merged, eh, keep);
    }

    /// Leave a block-like construct: join the branches merged into its
    /// frame with the fall-through state, or, when nothing reaches the
    /// end, leave a dead state of the construct's result height.
    fn block_exit(&mut self, st: &mut State, merged: Option<State>, eh: usize, keep: usize) {
        match merged {
            Some(mut m) => {
                if st.live {
                    debug_assert_eq!(st.stack.len(), eh + keep, "validated block arity");
                    join_into(st, &m);
                } else {
                    std::mem::swap(st, &mut m);
                }
                self.retire(m);
            }
            None if !st.live => {
                st.stack.truncate(eh);
                st.stack.extend(std::iter::repeat_n(AbsVal::top(), keep));
            }
            None => debug_assert_eq!(st.stack.len(), eh + keep, "validated block arity"),
        }
    }

    fn exec_loop(
        &mut self,
        bt: BlockType,
        inner: &[Node],
        loop_pc: u32,
        st: &mut State,
        frames: &mut Vec<Frame>,
        floor: usize,
    ) {
        let eh = st.stack.len();
        let keep = bt.arity();
        if !st.live {
            self.block_exit(st, None, eh, keep);
            return;
        }
        // The recording pass below restarts from the header, so the
        // entry state moves out of `st`.
        let entry = std::mem::take(st);
        let saved_rec = self.recording;

        // Probes sandbox forward exits, so a loop's header depends only on
        // its entry: every visit, probe or recording, reuses the last
        // header outright when the entry repeats, and warm-starts the
        // ascent from it when the entry has only grown (Bourdoncle's
        // recursive strategy — an inner head keeps its value across outer
        // iterations). A recording pass runs from the header its enclosing
        // fixpoint's last probe ran from, so an inner loop's recording
        // visit finds its own entry cached. `fixpoint`'s exit test accepts
        // only a verified post-fixpoint containing `entry`, so where the
        // ascent starts never affects soundness. The cached pair is taken
        // out while this loop runs (its inner loops have their own slots)
        // and put back with its buffers reused.
        let cached = self.loop_cache.get_mut(&loop_pc).map(std::mem::take);
        let header = match &cached {
            Some((ce, ch)) if *ce == entry => self.copy_of(ch),
            Some((ce, ch)) if state_contains(&entry, ce) => {
                let mut start = self.copy_of(&entry);
                join_into(&mut start, ch);
                self.fixpoint(inner, &entry, start, eh, frames)
            }
            _ => {
                let start = self.copy_of(&entry);
                self.fixpoint(inner, &entry, start, eh, frames)
            }
        };
        let mut ch = match cached {
            Some((ce, ch)) => {
                self.retire(ce);
                ch
            }
            None => self.spare.pop().unwrap_or_default(),
        };
        ch.clone_from(&header);
        self.loop_cache.insert(loop_pc, (entry, ch));
        self.recording = saved_rec;

        // The single recording pass, from the stabilized header, with
        // forward exits live.
        *st = header;
        frames.push(Frame {
            is_loop: true,
            entry_height: eh,
            keep: 0,
            merged: None,
            backedge: None,
        });
        self.exec_seq(inner, st, frames, floor);
        if let Some(be) = frames.pop().expect("loop frame").backedge {
            self.retire(be);
        }
        self.block_exit(st, None, eh, keep);
    }

    /// The loop header: a widening fixpoint over probes of `inner`,
    /// ascending from `start` (`entry`, or a cached header joined with it).
    /// Probes run without recording and with forward exits sandboxed
    /// (outer merges would double-count); widening jumps `hi` to the next
    /// program constant (threshold widening) so `i < N` loop bounds are
    /// found exactly, and a short narrowing phase recovers the `[0, N-1]`
    /// header after an overshoot. Every state operation here is in place.
    fn fixpoint(
        &mut self,
        inner: &[Node],
        entry: &State,
        start: State,
        eh: usize,
        frames: &mut Vec<Frame>,
    ) -> State {
        debug_assert!(entry.live && start.live);
        let mut header = start;
        let mut last_cand: Option<State> = None;
        let max_iters = self.thresholds.len() + 8;
        let mut it = 0usize;
        loop {
            if it >= max_iters {
                let fallback = self.conservative_header(entry, inner);
                self.retire(std::mem::replace(&mut header, fallback));
                break;
            }
            match self.probe(inner, &header, eh, frames) {
                None => {
                    // Body never reaches the back-edge: one trip from entry.
                    header.clone_from(entry);
                    break;
                }
                Some(mut cand) => {
                    // cand = entry ⊔ back-edge (both live, so the join
                    // commutes and can land in the back-edge's buffers).
                    join_into(&mut cand, entry);
                    if state_contains(&header, &cand) {
                        last_cand = Some(cand);
                        break;
                    }
                    if it >= 2 {
                        self.widen_into(&mut header, &cand);
                    } else {
                        join_into(&mut header, &cand);
                    }
                    self.retire(cand);
                }
            }
            it += 1;
        }
        // Narrowing: each candidate is accepted only after verifying it is
        // itself a post-fixpoint, so the result stays sound even though
        // refinement is not exactly monotone.
        for _ in 0..2 {
            let Some(cand) = last_cand.take() else { break };
            if cand == header {
                self.retire(cand);
                break;
            }
            let next = match self.probe(inner, &cand, eh, frames) {
                None => self.copy_of(entry),
                Some(mut be) => {
                    join_into(&mut be, entry);
                    be
                }
            };
            if state_contains(&cand, &next) {
                self.retire(std::mem::replace(&mut header, cand));
                last_cand = Some(next);
            } else {
                self.retire(cand);
                self.retire(next);
                break;
            }
        }
        if let Some(c) = last_cand {
            self.retire(c);
        }
        header
    }

    /// One non-recording pass over a loop body from `header`; returns the
    /// merged back-edge state, if any. Branches past the loop frame are
    /// dropped (they only mark the path dead).
    fn probe(
        &mut self,
        inner: &[Node],
        header: &State,
        eh: usize,
        frames: &mut Vec<Frame>,
    ) -> Option<State> {
        let mut s = self.copy_of(header);
        frames.push(Frame {
            is_loop: true,
            entry_height: eh,
            keep: 0,
            merged: None,
            backedge: None,
        });
        let inner_floor = frames.len() - 1;
        self.recording = false;
        self.exec_seq(inner, &mut s, frames, inner_floor);
        self.retire(s);
        frames.pop().expect("loop frame").backedge
    }

    /// Fixpoint failed to converge: fall back to the entry state with
    /// every local the loop writes at ⊤ and all facts dropped. Sound: the
    /// body cannot produce values outside ⊤ for written locals, cannot
    /// touch the others, and re-establishes facts itself.
    fn conservative_header(&mut self, entry: &State, inner: &[Node]) -> State {
        let mut h = self.copy_of(entry);
        let mut written = Vec::new();
        collect_written_locals(inner, self.body, &mut written);
        for l in written {
            h.locals[l as usize] = AbsVal::top();
            h.strip_local(l);
        }
        h.checked.clear();
        h
    }

    /// `header ← widen(header, header ⊔ cand)`: every bound the join
    /// moves jumps to the next program constant past it (or to the end of
    /// the range).
    fn widen_into(&self, header: &mut State, cand: &State) {
        let th = &self.thresholds;
        join_with(header, cand, |v, (old_lo, old_hi)| {
            if v.lo < old_lo {
                let i = th.partition_point(|&t| t <= v.lo);
                v.lo = if i > 0 { th[i - 1] } else { 0 };
            }
            if v.hi > old_hi {
                let i = th.partition_point(|&t| t < v.hi);
                v.hi = th.get(i).copied().unwrap_or(u32::MAX);
            }
        });
    }

    // ── branching ──────────────────────────────────────────────────

    /// Send `t` along a branch `depth` frames up: cut its stack to the
    /// target's entry height plus arity (a loop's is 0) and merge it into
    /// the target's join. Targets below `floor` lie outside the probed
    /// loop, so the path just ends.
    fn branch(&mut self, mut t: State, frames: &mut [Frame], floor: usize, depth: usize) {
        let idx = frames.len() - 1 - depth;
        if !t.live || idx < floor {
            self.retire(t);
            return;
        }
        let fr = &mut frames[idx];
        let keep = if fr.is_loop { 0 } else { fr.keep };
        let top = t.stack.len() - keep;
        t.stack.drain(fr.entry_height..top);
        let slot = if fr.is_loop {
            &mut fr.backedge
        } else {
            &mut fr.merged
        };
        match slot {
            Some(m) => {
                join_into(m, &t);
                self.retire(t);
            }
            None => *slot = Some(t),
        }
    }

    // ── the per-access decision ────────────────────────────────────

    fn decide(&mut self, pc: usize, addr: &AbsVal, offset: u32, size: u32, st: &mut State) {
        let extent = u64::from(offset) + u64::from(size);
        let (addr_lo, addr_hi) = addr.bounds();
        let end_min = addr_lo + extent;
        let end_max = addr_hi + extent;
        // Dominating-check facts need *exact* provenance: they compare
        // checked extents of the runtime value, which a mod-2^32
        // congruence cannot order.
        let exact_sym = addr.sym.filter(|s| s.exact);
        let mut dom_static = false;
        let kind = if end_max <= self.mem_min {
            CheckKind::ElideInBounds
        } else if end_min > self.mem_max {
            CheckKind::StaticOob
        } else if let Some(sym) = exact_sym {
            let need = u64::from(sym.addend) + extent;
            match st.fact((sym.local, sym.shift)) {
                Some(f) if f.need >= need => {
                    dom_static = f.is_static;
                    CheckKind::ElideDominated
                }
                _ => {
                    st.record_fact(sym.local, sym.shift, need, false);
                    CheckKind::Emit
                }
            }
        } else {
            CheckKind::Emit
        };
        if kind == CheckKind::ElideInBounds {
            // A statically proven bound is also a dominating fact — a
            // *static* one, consumable under clamp too.
            if let Some(sym) = exact_sym {
                st.record_fact(sym.local, sym.shift, u64::from(sym.addend) + extent, true);
            }
        }
        if kind == CheckKind::StaticOob {
            st.live = false;
        }
        if self.recording {
            self.kinds[pc] = kind;
            self.summary.accesses += 1;
            match kind {
                CheckKind::Emit => self.summary.emitted += 1,
                CheckKind::ElideInBounds => self.summary.elided_in_bounds += 1,
                CheckKind::ElideDominated => self.summary.elided_dominated += 1,
                CheckKind::StaticOob => self.summary.static_oob += 1,
            }
            if kind == CheckKind::ElideDominated && dom_static {
                self.clamp_ok.push(pc as u32);
            }
            if addr.hi == u32::MAX {
                self.any_unbounded = true;
            } else {
                self.any_bounded = true;
                self.max_needed = self.max_needed.max(end_max);
            }
        }
    }

    // ── instruction step ───────────────────────────────────────────

    #[allow(clippy::too_many_lines)]
    fn step(&mut self, pc: usize, st: &mut State, frames: &mut [Frame], floor: usize) {
        use Instr::*;
        self.steps += 1;
        let instr = &self.body[pc];
        match instr {
            Unreachable => st.live = false,
            Nop => {}
            Block(_) | Loop(_) | If(_) | Else | End => {
                unreachable!("structured ops handled by the tree walk")
            }
            // An unconditional branch moves the state out: what is left
            // behind is dead, and no dead state's contents are ever read.
            Br(d) => self.branch(std::mem::take(st), frames, floor, *d as usize),
            BrIf(d) => {
                let cond = st.stack.pop().expect("validated br_if");
                if cond.hi != 0 {
                    let mut taken = self.copy_of(st);
                    if let Some(p) = cond.pred {
                        refine(&mut taken, &p, true);
                    }
                    self.branch(taken, frames, floor, *d as usize);
                }
                if cond.lo > 0 {
                    st.live = false;
                } else if let Some(p) = cond.pred {
                    refine(st, &p, false);
                }
            }
            BrTable(t) => {
                let _sel = st.stack.pop();
                for &d in &t.targets {
                    let s = self.copy_of(st);
                    self.branch(s, frames, floor, d as usize);
                }
                self.branch(std::mem::take(st), frames, floor, t.default as usize);
            }
            Return => {
                let depth = frames.len() - 1;
                self.branch(std::mem::take(st), frames, floor, depth);
            }
            Call(fi) => {
                let ty = self.module.func_type(*fi).expect("validated call");
                st.stack.truncate(st.stack.len() - ty.params.len());
                if ty.result().is_some() {
                    st.stack.push(AbsVal::top());
                }
                // Calls cannot touch our locals, and linear memory only
                // grows, so intervals and facts survive.
            }
            CallIndirect(ti) => {
                let ty = &self.module.types[*ti as usize];
                st.stack.pop(); // table index
                for _ in 0..ty.params.len() {
                    st.stack.pop();
                }
                if ty.result().is_some() {
                    st.stack.push(AbsVal::top());
                }
            }
            Drop => {
                st.stack.pop();
            }
            Select => {
                let _c = st.stack.pop();
                let b = st.stack.pop().expect("validated select");
                join_val(st.stack.last_mut().expect("validated select"), &b);
            }

            LocalGet(l) => {
                let mut v = st.locals[*l as usize];
                v.sym = Some(Sym {
                    local: *l,
                    shift: 0,
                    addend: 0,
                    exact: true,
                });
                st.stack.push(v);
            }
            LocalSet(l) | LocalTee(l) => {
                let tee = matches!(instr, LocalTee(_));
                let mut v = if tee {
                    *st.stack.last().expect("validated tee")
                } else {
                    st.stack.pop().expect("validated set")
                };
                if tee {
                    st.stack.pop();
                }
                st.strip_local(*l);
                // The stored value may itself mention the local being
                // overwritten (`i = i + 1`): relative to the *new* value
                // it is exactly the local.
                if v.sym.is_some_and(|s| s.local == *l) {
                    v.sym = None;
                }
                if v.pred.is_some_and(|p| p.mentions(*l)) {
                    v.pred = None;
                }
                // An exact copy of another local (`end = n`) makes the
                // two equal: record both ≤ directions so either can serve
                // as the other's loop-invariant bound.
                if let Some(m) = v.as_local() {
                    st.add_rel(*l, m, false);
                    st.add_rel(m, *l, false);
                }
                let mut stored = v;
                stored.sym = None;
                st.locals[*l as usize] = stored;
                if tee {
                    let mut top = v;
                    top.sym = Some(Sym {
                        local: *l,
                        shift: 0,
                        addend: 0,
                        exact: true,
                    });
                    st.stack.push(top);
                }
            }
            GlobalGet(_) => st.stack.push(AbsVal::top()),
            GlobalSet(_) => {
                st.stack.pop();
            }

            MemorySize => {
                st.stack
                    .push(AbsVal::iv(self.mem_min >> 16, self.mem_max >> 16));
            }
            MemoryGrow => {
                st.stack.pop();
                st.stack.push(AbsVal::top());
            }

            I32Const(v) => st.stack.push(AbsVal::cst(*v as u32)),
            I64Const(_) | F32Const(_) | F64Const(_) => st.stack.push(AbsVal::top()),

            I32Add => self.binop(st, abs_add),
            I32Sub => {
                let b = st.stack.pop().expect("validated binop");
                let a = st.stack.pop().expect("validated binop");
                let mut r = abs_sub(&a, &b);
                // Interval subtraction gave up, but a relational fact
                // `b <u a` proves `a - b` cannot wrap: it lies in
                // [strict, a.hi - b.lo].
                if r.lo == 0 && r.hi == u32::MAX {
                    if let (Some(la), Some(lb)) = (a.as_local(), b.as_local()) {
                        if b.lo <= a.hi {
                            if let Some(strict) = st.rel_lt(lb, la) {
                                r = AbsVal::iv(u64::from(strict), u64::from(a.hi - b.lo));
                            }
                        }
                    }
                }
                st.stack.push(r);
            }
            I32Mul => self.binop(st, abs_mul),
            I32And => self.binop(st, abs_and),
            I32Shl => self.binop(st, abs_shl),
            I32ShrU => self.binop(st, abs_shr_u),
            I32Or | I32Xor => self.binop(st, |a, b| {
                match (a.as_const(), b.as_const()) {
                    (Some(_), Some(_)) => { /* folded below */ }
                    _ => return AbsVal::top(),
                }
                // Exact fold for constants (rare but free).
                let (x, y) = (a.lo, b.lo);
                AbsVal::cst(if matches!(instr, I32Or) { x | y } else { x ^ y })
            }),

            I32Eqz => {
                let a = st.stack.pop().expect("validated eqz");
                let v = match a.as_const() {
                    Some(c) => AbsVal::cst(u32::from(c == 0)),
                    None => {
                        let mut v = AbsVal::iv(0, 1);
                        v.pred = a.pred.map(|p| Pred {
                            op: p.op.inverse(),
                            ..p
                        });
                        // `x == 0` on a known-nonzero interval folds false.
                        if a.lo > 0 {
                            v = AbsVal::cst(0);
                        }
                        v
                    }
                };
                st.stack.push(v);
            }
            I32Eq => self.cmp(st, CmpOp::Eq),
            I32Ne => self.cmp(st, CmpOp::Ne),
            I32LtS => self.cmp(st, CmpOp::LtS),
            I32LtU => self.cmp(st, CmpOp::LtU),
            I32GtS => self.cmp(st, CmpOp::GtS),
            I32GtU => self.cmp(st, CmpOp::GtU),
            I32LeS => self.cmp(st, CmpOp::LeS),
            I32LeU => self.cmp(st, CmpOp::LeU),
            I32GeS => self.cmp(st, CmpOp::GeS),
            I32GeU => self.cmp(st, CmpOp::GeU),

            // Remaining two-operand ops: pop 2, push ⊤.
            I32DivS | I32DivU | I32RemS | I32RemU | I32ShrS | I32Rotl | I32Rotr | I64Add
            | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU | I64And | I64Or | I64Xor
            | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr | I64Eq | I64Ne | I64LtS | I64LtU
            | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS | I64GeU | F32Eq | F32Ne | F32Lt
            | F32Gt | F32Le | F32Ge | F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge | F32Add
            | F32Sub | F32Mul | F32Div | F32Min | F32Max | F32Copysign | F64Add | F64Sub
            | F64Mul | F64Div | F64Min | F64Max | F64Copysign => {
                st.stack.pop();
                st.stack.pop();
                st.stack.push(AbsVal::top());
            }
            // Remaining one-operand ops: pop 1, push ⊤.
            I32Clz | I32Ctz | I32Popcnt | I64Clz | I64Ctz | I64Popcnt | I64Eqz | F32Abs
            | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt | F64Abs | F64Neg
            | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt | I32WrapI64 | I64ExtendI32S
            | I64ExtendI32U | I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U
            | I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U | F32ConvertI32S
            | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U | F64ConvertI32S
            | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U | F32DemoteF64 | F64PromoteF32
            | I32ReinterpretF32 | I64ReinterpretF64 | F32ReinterpretI32 | F64ReinterpretI64 => {
                st.stack.pop();
                st.stack.push(AbsVal::top());
            }

            other => {
                let acc = other
                    .mem_access()
                    .unwrap_or_else(|| unreachable!("unhandled instruction {other:?}"));
                if acc.is_store {
                    st.stack.pop(); // value
                    let addr = st.stack.pop().expect("validated store");
                    self.decide(pc, &addr, acc.memarg.offset, acc.bytes, st);
                } else {
                    let addr = st.stack.pop().expect("validated load");
                    self.decide(pc, &addr, acc.memarg.offset, acc.bytes, st);
                    // Narrow loads have known result ranges — useful for
                    // masked-address chains.
                    let v = match (acc.bytes, acc.sign_extend, acc.ty) {
                        (1, false, ValType::I32) => AbsVal::iv(0, 0xFF),
                        (2, false, ValType::I32) => AbsVal::iv(0, 0xFFFF),
                        _ => AbsVal::top(),
                    };
                    st.stack.push(v);
                }
            }
        }
    }

    fn binop(&mut self, st: &mut State, f: impl FnOnce(&AbsVal, &AbsVal) -> AbsVal) {
        let b = st.stack.pop().expect("validated binop");
        let a = st.stack.pop().expect("validated binop");
        st.stack.push(f(&a, &b));
    }

    fn cmp(&mut self, st: &mut State, op: CmpOp) {
        let b = st.stack.pop().expect("validated cmp");
        let a = st.stack.pop().expect("validated cmp");
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            let (xs, ys) = (x as u32 as i32, y as u32 as i32);
            let r = match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::LtU => x < y,
                CmpOp::LeU => x <= y,
                CmpOp::GtU => x > y,
                CmpOp::GeU => x >= y,
                CmpOp::LtS => xs < ys,
                CmpOp::LeS => xs <= ys,
                CmpOp::GtS => xs > ys,
                CmpOp::GeS => xs >= ys,
            };
            st.stack.push(AbsVal::cst(u32::from(r)));
            return;
        }
        st.stack.push(AbsVal {
            pred: Some(Pred {
                op,
                l: a.operand(),
                r: b.operand(),
            }),
            ..AbsVal::iv(0, 1)
        });
    }
}

// ─────────────────────────────── branch refinement ───────────────────────

/// Narrow `state` assuming `pred` evaluated to `truth`. Only refines
/// operands with trivial local provenance. Unsigned comparisons refine
/// directly; signed comparisons refine whenever the *other* side is
/// provably non-negative, by intersecting the value's parts with a signed
/// region set that includes the negative (high unsigned) half where the
/// operator allows it — this is what recovers a descending induction
/// variable from its wrapped-decrement split. An empty intersection marks
/// the state dead. Afterwards, relational `a <u b` facts are recorded
/// when both sides are locals and the comparison has an unsigned reading.
fn refine(state: &mut State, pred: &Pred, truth: bool) {
    if !state.live {
        return;
    }
    let op = if truth { pred.op } else { pred.op.inverse() };
    let l_iv = pred.l.bounds(state);
    let r_iv = pred.r.bounds(state);
    if let Some(l) = pred.l.local() {
        apply_constraint(state, l, op, r_iv);
    }
    if !state.live {
        return;
    }
    if let Some(r) = pred.r.local() {
        apply_constraint(state, r, op.mirror(), l_iv);
    }
    if !state.live {
        return;
    }
    // Unsigned reading of the comparison, for relational facts and
    // constant feasibility: native unsigned ops pass through; signed ops
    // convert when both (post-refinement) operands are non-negative.
    const NONNEG: u64 = 0x7FFF_FFFF;
    let l_now = pred.l.bounds(state);
    let r_now = pred.r.bounds(state);
    let uop = match op {
        CmpOp::LtU | CmpOp::LeU | CmpOp::GtU | CmpOp::GeU | CmpOp::Eq | CmpOp::Ne => Some(op),
        CmpOp::LtS | CmpOp::LeS | CmpOp::GtS | CmpOp::GeS
            if l_now.1 <= NONNEG && r_now.1 <= NONNEG =>
        {
            Some(match op {
                CmpOp::LtS => CmpOp::LtU,
                CmpOp::LeS => CmpOp::LeU,
                CmpOp::GtS => CmpOp::GtU,
                CmpOp::GeS => CmpOp::GeU,
                _ => unreachable!(),
            })
        }
        _ => None,
    };
    let Some(uop) = uop else { return };
    match (pred.l, pred.r) {
        (Operand::Local(l), Operand::Local(r)) => match uop {
            CmpOp::LtU => state.add_rel(l, r, true),
            CmpOp::LeU => state.add_rel(l, r, false),
            CmpOp::GtU => state.add_rel(r, l, true),
            CmpOp::GeU => state.add_rel(r, l, false),
            CmpOp::Eq => {
                state.add_rel(l, r, false);
                state.add_rel(r, l, false);
            }
            _ => {}
        },
        // Constant-vs-constant infeasibility (e.g. a folded `0 != 0` guard).
        (Operand::Iv(..), Operand::Iv(..)) => {
            let feasible = match uop {
                CmpOp::LtU => l_iv.0 < r_iv.1,
                CmpOp::LeU => l_iv.0 <= r_iv.1,
                CmpOp::GtU => l_iv.1 > r_iv.0,
                CmpOp::GeU => l_iv.1 >= r_iv.0,
                CmpOp::Eq => l_iv.0 <= r_iv.1 && r_iv.0 <= l_iv.1,
                CmpOp::Ne => !(l_iv.0 == l_iv.1 && r_iv.0 == r_iv.1 && l_iv.0 == r_iv.0),
                _ => true,
            };
            if !feasible {
                state.live = false;
            }
        }
        _ => {}
    }
}

/// The allowed unsigned regions (at most 2, ordered, disjoint) for a
/// value satisfying `value op other`. `None` means no information; an
/// empty set means the constraint is infeasible.
fn constraint_regions(op: CmpOp, other: (u64, u64)) -> Option<Intervals<2>> {
    const NONNEG: u64 = 0x7FFF_FFFF;
    const NEG_LO: u64 = 0x8000_0000;
    let of = Intervals::of;
    Some(match op {
        CmpOp::LtU => {
            if other.1 == 0 {
                of(&[])
            } else {
                of(&[(0, other.1 - 1)])
            }
        }
        CmpOp::LeU => of(&[(0, other.1)]),
        CmpOp::GtU => {
            if other.0 == U32_MAX {
                of(&[])
            } else {
                of(&[(other.0 + 1, U32_MAX)])
            }
        }
        CmpOp::GeU => of(&[(other.0, U32_MAX)]),
        CmpOp::Eq => of(&[(other.0, other.1)]),
        CmpOp::Ne if other.0 == other.1 => {
            let c = other.0;
            let mut v = of(&[]);
            if c > 0 {
                v.push((0, c - 1));
            }
            if c < U32_MAX {
                v.push((c + 1, U32_MAX));
            }
            v
        }
        // Signed comparisons against a wholly non-negative other side:
        // `<s`/`<=s` admit the negative (high unsigned) half, `>s`/`>=s`
        // confine the value to the non-negative half.
        CmpOp::LtS if other.1 <= NONNEG => {
            let mut v = of(&[]);
            if other.1 > 0 {
                v.push((0, other.1 - 1));
            }
            v.push((NEG_LO, U32_MAX));
            v
        }
        CmpOp::LeS if other.1 <= NONNEG => of(&[(0, other.1), (NEG_LO, U32_MAX)]),
        CmpOp::GtS if other.1 <= NONNEG => {
            if other.0 == NONNEG {
                of(&[])
            } else {
                of(&[(other.0 + 1, NONNEG)])
            }
        }
        CmpOp::GeS if other.1 <= NONNEG => of(&[(other.0, NONNEG)]),
        _ => return None,
    })
}

fn apply_constraint(state: &mut State, l: u32, op: CmpOp, other: (u64, u64)) {
    let Some(regions) = constraint_regions(op, other) else {
        return;
    };
    if regions.len == 0 {
        state.live = false;
        return;
    }
    let v = &mut state.locals[l as usize];
    let mut pieces = Intervals::<4>::of(&[]);
    for &(plo, phi) in v.parts().as_slice() {
        for &(rlo, rhi) in regions.as_slice() {
            let lo = plo.max(rlo);
            let hi = phi.min(rhi);
            if lo <= hi {
                pieces.push((lo, hi));
            }
        }
    }
    let pieces = pieces.as_slice();
    let (Some(first), Some(last)) = (pieces.first(), pieces.last()) else {
        state.live = false;
        return;
    };
    v.lo = narrow(first.0);
    v.hi = narrow(last.1);
    v.split = match pieces {
        [_] => None,
        // 3+ pieces collapse to (first, hull of the rest): a sound
        // superset that keeps the leading gap.
        [_, second, ..] => Some((
            (narrow(first.0), narrow(first.1)),
            (narrow(second.0), narrow(last.1)),
        )),
        [] => unreachable!("non-empty"),
    };
}

// ──────────────────────────────────── tests ──────────────────────────────

#[cfg(test)]
mod tests {
    use super::*;
    use lb_wasm::instr::MemArg;
    use lb_wasm::module::Function;
    use lb_wasm::types::{FuncType, Limits, MemoryType};
    use lb_wasm::validate::validate;

    /// Build a one-function module with `pages` of memory.
    fn mk(
        params: &[ValType],
        locals: &[ValType],
        pages: u32,
        body: Vec<Instr>,
    ) -> (Module, ModuleMeta) {
        let mut m = Module::new();
        m.types.push(FuncType {
            params: params.to_vec(),
            results: vec![],
        });
        m.memory = Some(MemoryType {
            limits: Limits {
                min: pages,
                max: Some(pages),
            },
        });
        m.functions.push(Function {
            type_idx: 0,
            locals: locals.to_vec(),
            body,
            name: None,
        });
        let meta = validate(&m).expect("test module validates");
        (m, meta)
    }

    fn plan_of(m: &Module, meta: &ModuleMeta) -> FuncPlan {
        analyze_module(m, meta).funcs[0].clone()
    }

    const I32: ValType = ValType::I32;

    #[test]
    fn const_addresses_prove_in_bounds_and_oob() {
        use Instr::*;
        let (m, meta) = mk(
            &[],
            &[],
            1,
            vec![
                I32Const(0),
                I32Const(7),
                I32Store(MemArg {
                    align: 2,
                    offset: 100,
                }), // pc 2: in bounds
                I32Const(65533),
                I32Load(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 4: oob (65533+4 > 65536)
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(2), CheckKind::ElideInBounds);
        assert_eq!(p.kind_at(4), CheckKind::StaticOob);
        assert_eq!(p.summary.accesses, 2);
        assert_eq!(p.summary.elided_in_bounds, 1);
        assert_eq!(p.summary.static_oob, 1);
    }

    #[test]
    fn dominated_check_elided_across_if_else_join() {
        use Instr::*;
        // Regression for the JIT peephole's conservatism: `checked` facts
        // used to be wiped at every label, so the post-join load was
        // re-checked. The analysis keeps facts that hold on all paths.
        let (m, meta) = mk(
            &[I32, I32], // p0: address (unbounded), p1: condition
            &[],
            1,
            vec![
                LocalGet(0),
                I32Const(1),
                I32Store(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 2: Emit, fact (p0,0) -> 4
                LocalGet(1),
                If(BlockType::Empty),
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 6: dominated
                Drop,
                Else,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 10: dominated
                Drop,
                End,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 14: dominated *after the join*
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(2), CheckKind::Emit);
        assert_eq!(p.kind_at(6), CheckKind::ElideDominated);
        assert_eq!(p.kind_at(10), CheckKind::ElideDominated);
        assert_eq!(
            p.kind_at(14),
            CheckKind::ElideDominated,
            "fact must survive the join"
        );
        assert_eq!(p.summary.elided_dominated, 3);
    }

    #[test]
    fn reassignment_kills_dominating_fact() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                LocalGet(0),
                I32Const(1),
                I32Store(MemArg {
                    align: 0,
                    offset: 0,
                }),
                I32Const(90000), // can't re-prove: past memory, forces Emit path
                LocalSet(0),
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 6: NOT dominated
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(2), CheckKind::Emit);
        // After the reassignment the old fact is gone; the new constant
        // address is statically out of bounds (90000+4 > 65536).
        assert_eq!(p.kind_at(6), CheckKind::StaticOob);
    }

    #[test]
    fn fact_only_on_one_path_does_not_survive_join() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32, I32],
            &[],
            1,
            vec![
                LocalGet(1),
                If(BlockType::Empty),
                LocalGet(0),
                I32Const(1),
                I32Store(MemArg {
                    align: 0,
                    offset: 0,
                }), // fact only in then-arm
                End,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 7: must Emit
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(7), CheckKind::Emit);
    }

    #[test]
    fn wider_access_not_covered_by_narrower_check() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                LocalGet(0),
                I32Load8U(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 1: checks extent 1
                Drop,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 4: extent 4 > 1 → Emit
                Drop,
                LocalGet(0),
                I32Load8U(MemArg {
                    align: 0,
                    offset: 3,
                }), // pc 7: 3+1 ≤ 4 → dominated
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(1), CheckKind::Emit);
        assert_eq!(p.kind_at(4), CheckKind::Emit);
        assert_eq!(p.kind_at(7), CheckKind::ElideDominated);
    }

    #[test]
    fn shifted_provenance_tracks_through_shl() {
        use Instr::*;
        // A guard bounds p0 below 100_000 so `p0 << 3` provably does not
        // wrap (provenance survives the shift) yet the access is not
        // provably in bounds — the second identical address is dominated.
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                Block(BlockType::Empty),
                LocalGet(0),
                I32Const(100_000),
                I32GeU,
                BrIf(0),
                LocalGet(0),
                I32Const(3),
                I32Shl,
                F64Load(MemArg {
                    align: 3,
                    offset: 0,
                }), // pc 8: checks (p0<<3) extent 8
                Drop,
                LocalGet(0),
                I32Const(3),
                I32Shl,
                F64Load(MemArg {
                    align: 3,
                    offset: 0,
                }), // pc 13: dominated
                Drop,
                End,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(8), CheckKind::Emit);
        assert_eq!(p.kind_at(13), CheckKind::ElideDominated);
    }

    #[test]
    fn counted_loop_proves_all_iteration_accesses_in_bounds() {
        use Instr::*;
        // for (i = 0; i < 1000; i++) mem[i<<3] — the DSL's loop shape:
        // pre-guard, loop, body, increment, back-edge guard. 1000*8 = 8000
        // bytes < 1 page, so every access is provably in bounds.
        let n = 1000;
        let (m, meta) = mk(
            &[],
            &[I32],
            1,
            vec![
                Block(BlockType::Empty),
                LocalGet(0),
                I32Const(n),
                I32GeS,
                BrIf(0),
                Loop(BlockType::Empty),
                LocalGet(0),
                I32Const(3),
                I32Shl,
                I32Const(7),
                I32Store(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 10: in bounds
                LocalGet(0),
                I32Const(1),
                I32Add,
                LocalTee(0),
                I32Const(n),
                I32LtS,
                BrIf(0),
                End,
                End,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(
            p.kind_at(10),
            CheckKind::ElideInBounds,
            "loop induction variable must be bounded by the back-edge guard"
        );
        assert_eq!(p.summary.accesses, 1);
        // i ∈ [0, 999] → max EA = 999*8 + 4 + 0 = 7996.
        assert_eq!(p.summary.check_free_min_bytes, Some(7996));
        assert_eq!(p.summary.max_proven_ea, Some(7996));
    }

    #[test]
    fn loop_with_growing_address_stays_sound() {
        use Instr::*;
        // i starts at 0 and doubles+1 each iteration with no guard: the
        // analysis must NOT claim in-bounds for mem[i].
        let (m, meta) = mk(
            &[I32],
            &[I32],
            1,
            vec![
                Loop(BlockType::Empty),
                LocalGet(1),
                I32Load(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 2
                Drop,
                LocalGet(1),
                I32Const(1),
                I32Shl,
                I32Const(1),
                I32Add,
                LocalSet(1),
                LocalGet(0),
                BrIf(0),
                End,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(2), CheckKind::Emit);
        assert_eq!(p.summary.check_free_min_bytes, None);
    }

    #[test]
    fn masked_address_proves_in_bounds() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                LocalGet(0),
                I32Const(0x3FF8),
                I32And,
                I32Load(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 3: ≤ 0x3FF8+4 < 65536
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(3), CheckKind::ElideInBounds);
    }

    #[test]
    fn offset_overflow_is_static_oob() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                LocalGet(0),
                I32Load(MemArg {
                    align: 2,
                    offset: u32::MAX - 2,
                }), // pc 1
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        // Even addr=0 gives EA ≥ 2^32-3+4 > 4 GiB > any wasm memory.
        assert_eq!(p.kind_at(1), CheckKind::StaticOob);
    }

    #[test]
    fn nested_loops_record_each_access_once() {
        use Instr::*;
        // for i in 0..10 { for j in 0..10 { store(i*10+j)*4 } }
        let (m, meta) = mk(
            &[],
            &[I32, I32],
            1,
            vec![
                Block(BlockType::Empty),
                LocalGet(0),
                I32Const(10),
                I32GeS,
                BrIf(0),
                Loop(BlockType::Empty),
                I32Const(0),
                LocalSet(1),
                Block(BlockType::Empty),
                LocalGet(1),
                I32Const(10),
                I32GeS,
                BrIf(0),
                Loop(BlockType::Empty),
                LocalGet(0),
                I32Const(10),
                I32Mul,
                LocalGet(1),
                I32Add,
                I32Const(2),
                I32Shl,
                I32Const(5),
                I32Store(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 22
                LocalGet(1),
                I32Const(1),
                I32Add,
                LocalTee(1),
                I32Const(10),
                I32LtS,
                BrIf(0),
                End,
                End,
                LocalGet(0),
                I32Const(1),
                I32Add,
                LocalTee(0),
                I32Const(10),
                I32LtS,
                BrIf(0),
                End,
                End,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.summary.accesses, 1, "one static access site");
        assert_eq!(p.kind_at(22), CheckKind::ElideInBounds);
        // max EA = (9*10+9)*4 + 4 = 400.
        assert_eq!(p.summary.check_free_min_bytes, Some(400));
    }

    #[test]
    fn br_table_paths_merge_conservatively() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32, I32],
            &[],
            1,
            vec![
                Block(BlockType::Empty),
                Block(BlockType::Empty),
                LocalGet(1),
                BrTable(Box::new(lb_wasm::instr::BrTable {
                    targets: vec![0],
                    default: 1,
                })),
                End,
                LocalGet(0),
                I32Const(1),
                I32Store(MemArg {
                    align: 0,
                    offset: 0,
                }), // only on one path
                End,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 10: must Emit
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(10), CheckKind::Emit);
    }

    /// The canonical unsigned counted loop with a ⊤ bound: `for i in
    /// 0..p0` store at `(i<<2)+64`.
    fn dyn_loop_body() -> Vec<Instr> {
        vec![
            Instr::I32Const(0),
            Instr::LocalSet(1),
            Instr::LocalGet(0),
            Instr::LocalSet(2),
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(1),
            Instr::LocalGet(2),
            Instr::I32GeU,
            Instr::BrIf(0),
            Instr::Loop(BlockType::Empty),
            Instr::LocalGet(1),
            Instr::I32Const(2),
            Instr::I32Shl,
            Instr::LocalGet(1),
            Instr::I32Store(MemArg::offset(64)),
            Instr::LocalGet(1),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalTee(1),
            Instr::LocalGet(2),
            Instr::I32LtU,
            Instr::BrIf(0),
            Instr::End,
            Instr::End,
            Instr::End,
        ]
    }

    #[test]
    fn unsigned_dynamic_bound_loop_keeps_its_check() {
        // Nothing bounds `end`, so no fact covers the store: it keeps its
        // per-access check.
        let (m, meta) = mk(&[I32], &[I32, I32], 1, dyn_loop_body());
        let plan = plan_of(&m, &meta);
        assert_eq!(plan.summary.accesses, 1);
        assert_eq!(plan.summary.emitted, 1);
    }

    #[test]
    fn descending_loop_interval_split_proves_accesses() {
        // `for i in (0..100).rev()` store at `(i<<2)`: the descending
        // update wraps through -1 on exit, so the index interval only
        // stays useful if the analysis splits it at the wrap.
        let body = vec![
            Instr::I32Const(99),
            Instr::LocalSet(0),
            Instr::Block(BlockType::Empty),
            Instr::Loop(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::I32Const(2),
            Instr::I32Shl,
            Instr::LocalGet(0),
            Instr::I32Store(MemArg::offset(0)),
            Instr::LocalGet(0),
            Instr::I32Const(1),
            Instr::I32Sub,
            Instr::LocalTee(0),
            Instr::I32Const(0),
            Instr::I32GeS,
            Instr::BrIf(0),
            Instr::End,
            Instr::End,
            Instr::End,
        ];
        let (m, meta) = mk(&[], &[I32], 1, body);
        let plan = plan_of(&m, &meta);
        assert_eq!(plan.summary.elided_in_bounds, 1, "{:?}", plan.summary);
        assert_eq!(plan.summary.emitted, 0);
    }

    #[test]
    fn dynamic_dominator_is_not_clamp_consumable() {
        // Two identical loads from a ⊤ parameter: the first emits its
        // check and records a *dynamic* fact, so the second is
        // `ElideDominated` — but NOT clamp-consumable. Under `trap` the
        // dominating guard faults on OOB, so control never reaches the
        // second load with a bad address; under `clamp` the dominator
        // only clamped its own effective address (the local still holds
        // the raw value), so the dominated access must clamp again.
        let body = vec![
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(0)),
            Instr::Drop,
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(0)),
            Instr::Drop,
            Instr::End,
        ];
        let (m, meta) = mk(&[I32], &[], 1, body);
        let plan = plan_of(&m, &meta);
        assert_eq!(plan.summary.elided_dominated, 1);
        let pc = m.functions[0]
            .body
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Instr::I32Load(_)))
            .map(|(pc, _)| pc)
            .nth(1)
            .unwrap();
        assert_eq!(plan.kind_at(pc), CheckKind::ElideDominated);
        assert!(
            !plan.clamp_elidable(pc),
            "a dynamic dominating check must not lift the clamp"
        );
    }

    // ── lattice oracle ─────────────────────────────────────────────

    /// The functional join (a new state per call), written for clarity
    /// rather than speed: `join_into` must equal it, and `state_contains`
    /// must agree with `reference_join(a, b) == a`.
    fn reference_join(a: &State, b: &State) -> State {
        if !a.live {
            return b.clone();
        }
        if !b.live {
            return a.clone();
        }
        let jv = |x: &AbsVal, y: &AbsVal| AbsVal {
            lo: x.lo.min(y.lo),
            hi: x.hi.max(y.hi),
            stride_log2: x.stride_log2.min(y.stride_log2),
            split: if x.split == y.split { x.split } else { None },
            sym: if x.sym == y.sym { x.sym } else { None },
            pred: if x.pred == y.pred { x.pred } else { None },
        };
        State {
            locals: a
                .locals
                .iter()
                .zip(&b.locals)
                .map(|(x, y)| jv(x, y))
                .collect(),
            stack: a
                .stack
                .iter()
                .zip(&b.stack)
                .map(|(x, y)| jv(x, y))
                .collect(),
            checked: a
                .checked
                .iter()
                .filter_map(|f| {
                    b.fact(f.key()).map(|g| Fact {
                        need: f.need.min(g.need),
                        is_static: f.is_static && g.is_static,
                        ..*f
                    })
                })
                .collect(),
            rel: a
                .rel
                .iter()
                .filter_map(|r| {
                    b.relation(r.a, r.b).map(|s| Rel {
                        strict: r.strict && s,
                        ..*r
                    })
                })
                .collect(),
            live: true,
        }
    }

    /// SplitMix64: a seeded, dependency-free generator.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// A value drawn from small pools, so that two independent draws are
    /// often equal or ordered (otherwise ⊑ would almost never hold).
    fn rand_val(rng: &mut SplitMix64) -> AbsVal {
        const ENDS: [u32; 6] = [0, 1, 8, 100, u32::MAX - 1, u32::MAX];
        let (x, y) = (rng.pick(&ENDS), rng.pick(&ENDS));
        let split = ((0, 3), (u32::MAX, u32::MAX));
        let sym = |local, addend, shift, exact| Sym {
            local,
            addend,
            shift,
            exact,
        };
        let ops = [CmpOp::LtU, CmpOp::GeS];
        let operands = [Operand::Local(0), Operand::Local(1), Operand::Iv(0, 8)];
        AbsVal {
            lo: x.min(y),
            hi: x.max(y),
            stride_log2: rng.pick(&[0, 2, 3, STRIDE_LOG2_CAP]),
            split: rng.chance(20).then_some(split),
            sym: rng
                .chance(40)
                .then(|| rng.pick(&[sym(0, 0, 0, true), sym(1, 8, 2, true), sym(1, 8, 2, false)])),
            pred: rng.chance(30).then(|| Pred {
                op: rng.pick(&ops),
                l: rng.pick(&operands),
                r: rng.pick(&operands),
            }),
        }
    }

    /// A state with `n_locals` locals and `height` stack slots; facts are
    /// drawn in key order, so the vectors stay sorted.
    fn rand_state(rng: &mut SplitMix64, n_locals: usize, height: usize) -> State {
        let mut checked = Vec::new();
        for (local, shift) in [(0, 0), (0, 2), (1, 3), (2, 0)] {
            if rng.chance(40) {
                checked.push(Fact {
                    local,
                    shift,
                    is_static: rng.chance(50),
                    need: rng.pick(&[4, 8, 12]),
                });
            }
        }
        let mut rel = Vec::new();
        for (a, b) in [(0, 1), (0, 2), (1, 0), (2, 1)] {
            if rng.chance(40) {
                rel.push(Rel {
                    a,
                    b,
                    strict: rng.chance(50),
                });
            }
        }
        State {
            locals: (0..n_locals).map(|_| rand_val(rng)).collect(),
            stack: (0..height).map(|_| rand_val(rng)).collect(),
            checked,
            rel,
            live: !rng.chance(10),
        }
    }

    #[test]
    fn in_place_join_and_containment_match_the_reference_join() {
        let mut rng = SplitMix64(0x1eaf_5a2d_b0d5);
        let (mut covered, mut not_covered) = (0, 0);
        for _ in 0..20_000 {
            let n_locals = rng.below(5) as usize;
            let height = rng.below(3) as usize;
            let mut a = rand_state(&mut rng, n_locals, height);
            let b = rand_state(&mut rng, n_locals, height);
            // Half the pairs are pre-joined, so containment often holds.
            if rng.chance(50) {
                a = reference_join(&a, &b);
            }
            let reference = reference_join(&a, &b);

            let contains = state_contains(&a, &b);
            assert_eq!(contains, !b.live || reference == a, "⊑ on\n{a:?}\n{b:?}");
            if contains {
                covered += 1;
            } else {
                not_covered += 1;
            }

            // Into a fresh copy and into reused, differently-shaped buffers.
            let mut joined = a.clone();
            join_into(&mut joined, &b);
            assert_eq!(joined, reference, "⊔ on\n{a:?}\n{b:?}");
            let mut reused = rand_state(&mut rng, 4, 2);
            reused.clone_from(&a);
            join_into(&mut reused, &b);
            assert_eq!(reused, reference);
        }
        assert!(
            covered > 2_000 && not_covered > 2_000,
            "{covered} / {not_covered}"
        );
    }
}
