//! Forward abstract interpretation over the decoded instruction stream.
//!
//! Reconstructs the control-flow graph from rel32 branches, runs a
//! worklist fixpoint over an abstract domain tuned to the JIT's bounds
//! idioms, and reports every `r14`-based memory operand together with what
//! the analysis can prove about its index at that point:
//!
//! * **facts** — `value + covered <= mem_size`, established by the trap
//!   guard shape `lea scratch, [addr+extent]; cmp scratch, [r15+8]; ja oob`
//!   (taking the fall-through edge of the `ja`). Facts survive calls and
//!   `memory.grow` because `mem_size` only ever increases.
//! * **clamps** — `value <= mem_size - margin`, established by the clamp
//!   shape `cmp scratch, t; cmova scratch, t` with `t = mem_size - size`.
//! * **cleanliness** — whether a value provably fits in 32 bits, which is
//!   what the 8-GiB guard-region strategies rely on. 32-bit operations
//!   zero the upper half; function arguments and call results are assumed
//!   type-correct at the ABI boundary (documented in DESIGN.md §6).
//!
//! The interpretation is deterministic: symbol identities derive from
//! instruction byte offsets, and join symbols are memoized per
//! (block, location). A join symbol inherits the facts that cover the
//! location's value on every incoming path, so a guard whose operand is a
//! constant on the first visit of a block and symbolic on later visits
//! still proves the access it dominates.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::decode::decode_all;
use crate::isa::{AluRi, AluRr, Cc, Inst, Mem, Reg, ShiftOp, W};
use crate::report::{Finding, FindingKind};

/// Upper bound on fixpoint visits per block before declaring divergence.
const ITER_CAP: usize = 64;

const RSP: u8 = 4;
const RBP: u8 = 5;
const R14: u8 = 14;
const R15: u8 = 15;

/// `ctx_off::MEM_SIZE` — the committed linear-memory size in bytes.
const CTX_MEM_SIZE: i32 = 8;

/// `ctx_off::MEM_LIMITS` — base of the per-extent fused-guard limit table
/// (`mem_limits[i] = mem_size - (extent_i - 1)`, saturating).
pub(crate) const CTX_MEM_LIMITS: i32 = 64;

/// Number of fused-guard limit slots in `VmCtx` (`lb-jit`'s
/// `N_LIMIT_SLOTS`).
pub(crate) const N_LIMIT_SLOTS: usize = 8;

/// The limit-table slot a `[r15 + disp]` operand addresses, if any.
pub(crate) fn limit_slot(disp: i32) -> Option<u8> {
    let rel = disp - CTX_MEM_LIMITS;
    (rel >= 0 && rel < 8 * N_LIMIT_SLOTS as i32 && rel % 8 == 0).then_some((rel / 8) as u8)
}

// Symbol-id layout. Entry and special symbols live below `ID_INST_BASE`;
// instruction-produced symbols are `ID_INST_BASE + offset*64 + slot` where
// `slot` is the destination register (or a small tag); join symbols are
// allocated from a counter starting at `ID_JOIN_BASE` and memoized per
// (block, location) so the fixpoint converges.
const ID_ARG_BASE: u64 = 8;
const ID_REG_BASE: u64 = 32;
const ID_INST_BASE: u64 = 1024;
const ID_JOIN_BASE: u64 = 1 << 60;

/// Tag for the frame slot a host call writes its result into.
const SLOT_RESULT_TAG: u64 = 16;

fn inst_id(off: usize, slot: u64) -> u64 {
    ID_INST_BASE + (off as u64) * 64 + slot
}

/// Abstract value of a 64-bit register or frame slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbsVal {
    /// `sym + add`, where `sym` is an unknown-but-fixed quantity. `clean`
    /// means `sym < 2^32`.
    Sym { id: u64, clean: bool, add: u64 },
    /// A compile-time constant.
    Const(u64),
    /// `<= mem_size - margin`, produced by the clamp idiom. `fresh` until
    /// the next linear-memory access consumes it.
    Clamped { margin: u64, fresh: bool },
    /// A `mem_size` snapshot minus `k` (the clamp limit register).
    MemSizeMinus { k: u64 },
}

impl AbsVal {
    /// Whether the full 64-bit value is provably `< 2^32`.
    fn clean(self) -> bool {
        match self {
            AbsVal::Sym { clean, add, .. } => clean && add == 0,
            AbsVal::Const(c) => c <= u64::from(u32::MAX),
            // Clamped and the mem_size snapshot are bounded by the 4-GiB
            // wasm memory limit.
            AbsVal::Clamped { .. } | AbsVal::MemSizeMinus { .. } => true,
        }
    }
}

/// Key for an in-bounds fact: a symbol, or the constant pool (one shared
/// entry — constants compare against `covered` directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FactKey {
    Sym(u64),
    Consts,
}

/// `key + covered <= mem_size` (for `Consts`: `covered <= mem_size`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fact {
    pub(crate) covered: u64,
    /// Set by the guard just executed; cleared by the next access.
    pub(crate) fresh: bool,
    /// Set when the last guard proving it was a fused limit-table compare.
    pub(crate) fused: bool,
}

/// Flags state, tracking only the comparisons the guard idioms use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flags {
    Unknown,
    /// `cmp reg, [r15 + MEM_SIZE]` (64-bit): the left-hand value.
    CmpMemSize(AbsVal),
    /// `cmp reg, [r15 + MEM_LIMITS + 8*slot]` (64-bit): the left-hand
    /// value and the limit-table slot — the fused-guard compare.
    CmpLimit {
        lhs: AbsVal,
        slot: u8,
    },
    /// `cmp_rr` 64-bit between two registers (the clamp compare).
    CmpRR {
        l: u8,
        r: u8,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: [AbsVal; 16],
    /// rbp-relative frame slots. Valid only while `rbp_valid`.
    slots: BTreeMap<i32, AbsVal>,
    facts: BTreeMap<FactKey, Fact>,
    flags: Flags,
    rbp_valid: bool,
    /// `(reg, slot_disp)` when `reg` holds `lea reg, [rbp+disp]` — the
    /// host-call result protocol.
    slot_ptr: Option<(u8, i32)>,
}

/// What the interpreter observed about one `r14`-based memory operand.
#[derive(Debug, Clone)]
pub(crate) struct SiteObs {
    /// Byte offset of the accessing instruction.
    pub off: usize,
    /// Machine shape of the access.
    pub op: MachineOp,
    /// Static displacement of the operand.
    pub disp: i32,
    /// True when the operand is `[r14 + idx*1 + disp]` (or has no index).
    pub scale_ok: bool,
    /// Whether the fixpoint reached this instruction.
    pub reachable: bool,
    /// Index-register observation (reachable sites only).
    pub idx: Option<IdxObs>,
}

/// The abstract index value at an access, with any covering proof state.
#[derive(Debug, Clone)]
pub(crate) enum IdxObs {
    /// Symbolic `sym + add`.
    Sym {
        clean: bool,
        add: u64,
        /// The fact `sym + covered <= mem_size`, when one holds.
        fact: Option<Fact>,
    },
    /// Constant index.
    Const { v: u64, fact: Option<Fact> },
    /// Clamped to `mem_size - margin`.
    Clamped { margin: u64 },
    /// A `mem_size - k` snapshot (bounded by the 4-GiB memory limit).
    MemSizeMinus,
}

/// Width/direction class of a machine memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum MachineOp {
    Load8Z,
    Load8S32,
    Load8S64,
    Load16Z,
    Load16S32,
    Load16S64,
    Load32,
    Load32S64,
    Load64,
    Store8,
    Store16,
    Store32,
    Store64,
    FLoad32,
    FLoad64,
    FStore32,
    FStore64,
    /// `cmp reg, [r14+..]` — reads linear memory but matches no wasm site.
    CmpM,
    /// `call [r14+..]` — never a legitimate shape.
    CallM,
}

pub(crate) struct MachineAnalysis {
    /// All `r14`-based operands, in byte order (reachable or not).
    pub sites: Vec<SiteObs>,
    /// Structural findings (decode, CFG, reserved registers, divergence).
    pub findings: Vec<Finding>,
}

/// Run the machine-side analysis of one compiled function body.
///
/// `int_params` lists the function's integer parameters in ABI order,
/// `true` for i32 (arrives zero-extended per the ABI assumption).
/// `limit_extents` is the verifier's own recomputation of the module's
/// fused-guard extent table (`dataflow::module_extents` is a pure function
/// of the module); empty outside the trap strategy, which makes every
/// limit-table compare an unknown flag state.
pub(crate) fn analyze(
    func: usize,
    code: &[u8],
    int_params: &[bool],
    limit_extents: &[u64],
) -> MachineAnalysis {
    let mut findings = Vec::new();
    let insts = match decode_all(code) {
        Ok(v) => v,
        Err(e) => {
            findings.push(Finding {
                func,
                offset: e.offset,
                kind: FindingKind::Decode {
                    reason: e.reason.to_string(),
                },
            });
            return MachineAnalysis {
                sites: Vec::new(),
                findings,
            };
        }
    };
    let mut ai = Absint::new(func, code.len(), insts, int_params, limit_extents);
    if let Err(f) = ai.build_cfg() {
        ai.findings.push(f);
        // Even with a broken CFG we can still enumerate raw r14 operands
        // so the caller sees the count; mark everything unreachable.
        return MachineAnalysis {
            sites: ai.raw_sites(),
            findings: ai.findings,
        };
    }
    ai.fixpoint();
    ai.finalize()
}

struct Absint {
    func: usize,
    code_len: usize,
    insts: Vec<(usize, Inst)>,
    /// Byte offset -> index into `insts`.
    by_off: HashMap<usize, usize>,
    /// Block leader offsets, ascending.
    leaders: Vec<usize>,
    /// Leader offset -> converged entry state.
    entry: HashMap<usize, State>,
    /// (block, location) -> memoized join symbol.
    join_memo: HashMap<(usize, JoinLoc), u64>,
    next_join: u64,
    findings: Vec<Finding>,
    /// Offset -> observation, filled during the final pass.
    sites: BTreeMap<usize, SiteObs>,
    entry_state: State,
    recording: bool,
    /// Fused-guard extent per limit-table slot (may be shorter than
    /// `N_LIMIT_SLOTS`; out-of-range slots yield no fact).
    limit_extents: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum JoinLoc {
    Reg(u8),
    Slot(i32),
}

impl Absint {
    fn new(
        func: usize,
        code_len: usize,
        insts: Vec<(usize, Inst)>,
        int_params: &[bool],
        limit_extents: &[u64],
    ) -> Absint {
        let by_off = insts
            .iter()
            .enumerate()
            .map(|(i, &(o, _))| (o, i))
            .collect();
        // System V integer argument registers, in order.
        const INT_ARGS: [u8; 6] = [7, 6, 2, 1, 8, 9];
        let mut regs = [AbsVal::Const(0); 16];
        for (r, v) in regs.iter_mut().enumerate() {
            *v = AbsVal::Sym {
                id: ID_REG_BASE + r as u64,
                clean: false,
                add: 0,
            };
        }
        for (i, &is_i32) in int_params.iter().enumerate().take(INT_ARGS.len()) {
            regs[INT_ARGS[i] as usize] = AbsVal::Sym {
                id: ID_ARG_BASE + i as u64,
                clean: is_i32,
                add: 0,
            };
        }
        let entry_state = State {
            regs,
            slots: BTreeMap::new(),
            facts: BTreeMap::new(),
            flags: Flags::Unknown,
            rbp_valid: false,
            slot_ptr: None,
        };
        Absint {
            func,
            code_len,
            insts,
            by_off,
            leaders: Vec::new(),
            entry: HashMap::new(),
            join_memo: HashMap::new(),
            next_join: ID_JOIN_BASE,
            findings: Vec::new(),
            sites: BTreeMap::new(),
            entry_state,
            recording: false,
            limit_extents: limit_extents.to_vec(),
        }
    }

    fn inst_end(&self, i: usize) -> usize {
        self.insts.get(i + 1).map_or(self.code_len, |&(o, _)| o)
    }

    fn branch_target(&self, i: usize, rel: i32) -> Result<usize, Finding> {
        let t = self.inst_end(i) as i64 + i64::from(rel);
        if t < 0 || t >= self.code_len as i64 || !self.by_off.contains_key(&(t as usize)) {
            return Err(Finding {
                func: self.func,
                offset: self.insts[i].0,
                kind: FindingKind::BadBranchTarget { target: t },
            });
        }
        Ok(t as usize)
    }

    fn build_cfg(&mut self) -> Result<(), Finding> {
        let mut leaders: BTreeSet<usize> = BTreeSet::new();
        leaders.insert(0);
        for i in 0..self.insts.len() {
            match self.insts[i].1 {
                Inst::Jcc { rel, .. } => {
                    leaders.insert(self.branch_target(i, rel)?);
                    if self.inst_end(i) < self.code_len {
                        leaders.insert(self.inst_end(i));
                    }
                }
                Inst::Jmp { rel } => {
                    leaders.insert(self.branch_target(i, rel)?);
                    if self.inst_end(i) < self.code_len {
                        leaders.insert(self.inst_end(i));
                    }
                }
                Inst::Ret | Inst::Ud2Trap { .. } => {
                    if self.inst_end(i) < self.code_len {
                        leaders.insert(self.inst_end(i));
                    }
                }
                _ => {}
            }
        }
        self.leaders = leaders.into_iter().collect();
        Ok(())
    }

    /// Instruction indices of a block starting at leader offset `b`.
    fn block_insts(&self, b: usize) -> std::ops::Range<usize> {
        let start = self.by_off[&b];
        let next = self
            .leaders
            .iter()
            .find(|&&l| l > b)
            .copied()
            .unwrap_or(self.code_len);
        let end = (start..self.insts.len())
            .find(|&i| self.insts[i].0 >= next)
            .unwrap_or(self.insts.len());
        start..end
    }

    fn fixpoint(&mut self) {
        let mut work = vec![0usize];
        self.entry.insert(0, self.entry_state.clone());
        let mut visits: HashMap<usize, usize> = HashMap::new();
        while let Some(b) = work.pop() {
            let v = visits.entry(b).or_insert(0);
            *v += 1;
            if *v > ITER_CAP {
                self.findings.push(Finding {
                    func: self.func,
                    offset: b,
                    kind: FindingKind::NoConvergence,
                });
                return;
            }
            let mut st = self.entry[&b].clone();
            let range = self.block_insts(b);
            let mut out: Vec<(usize, State)> = Vec::new();
            let mut fell_through = true;
            for i in range.clone() {
                let (off, inst) = self.insts[i];
                match inst {
                    Inst::Jcc { cc, rel } => {
                        let t = self.branch_target(i, rel).expect("validated in build_cfg");
                        let mut fall = st.clone();
                        // The trap-guard fall-through: `ja oob` not taken
                        // means `lhs <= mem_size`.
                        if cc == Cc::A {
                            if let Flags::CmpMemSize(lhs) = st.flags {
                                add_fact(&mut fall, lhs);
                            }
                        }
                        // The fused-guard fall-through: `jae oob` not taken
                        // means `lhs < mem_size - (extent - 1)`, i.e.
                        // `lhs + extent <= mem_size`. Only `Ae` is sound
                        // here — an `A` fall-through of the same compare is
                        // off by one.
                        if cc == Cc::Ae {
                            if let Flags::CmpLimit { lhs, slot } = st.flags {
                                if let Some(&extent) = self.limit_extents.get(usize::from(slot)) {
                                    add_limit_fact(&mut fall, lhs, extent);
                                }
                            }
                        }
                        out.push((t, st.clone()));
                        out.push((self.inst_end(i), fall));
                        fell_through = false;
                        break;
                    }
                    Inst::Jmp { rel } => {
                        let t = self.branch_target(i, rel).expect("validated in build_cfg");
                        out.push((t, st.clone()));
                        fell_through = false;
                        break;
                    }
                    Inst::Ret | Inst::Ud2Trap { .. } => {
                        fell_through = false;
                        break;
                    }
                    _ => self.transfer(&mut st, off, &inst),
                }
            }
            if fell_through {
                let next = range.end;
                if next < self.insts.len() {
                    out.push((self.insts[next].0, st.clone()));
                }
            }
            for (succ, incoming) in out {
                if succ >= self.code_len {
                    continue;
                }
                match self.entry.get(&succ).cloned() {
                    None => {
                        self.entry.insert(succ, incoming);
                        work.push(succ);
                    }
                    Some(old) => {
                        let joined = self.join_states(succ, &old, &incoming);
                        if joined != old {
                            self.entry.insert(succ, joined);
                            work.push(succ);
                        }
                    }
                }
            }
        }
    }

    /// Replay every reachable block once against its converged entry state,
    /// recording access observations and structural findings, then sweep
    /// for unreachable `r14` operands.
    fn finalize(mut self) -> MachineAnalysis {
        self.recording = true;
        let leaders = self.leaders.clone();
        for &b in &leaders {
            let Some(entry) = self.entry.get(&b).cloned() else {
                continue;
            };
            let mut st = entry;
            for i in self.block_insts(b) {
                let (off, inst) = self.insts[i];
                match inst {
                    Inst::Jcc { .. } | Inst::Jmp { .. } | Inst::Ret | Inst::Ud2Trap { .. } => break,
                    _ => self.transfer(&mut st, off, &inst),
                }
            }
        }
        // Unreachable r14 operands still count as sites (the StaticOob
        // idiom relies on this).
        for &(off, ref inst) in &self.insts.clone() {
            if self.sites.contains_key(&off) {
                continue;
            }
            if let Some((op, m)) = linear_operand(inst) {
                self.sites.insert(
                    off,
                    SiteObs {
                        off,
                        op,
                        disp: m.disp,
                        scale_ok: m.index.map_or(true, |(_, s)| s == 1),
                        reachable: false,
                        idx: None,
                    },
                );
            }
        }
        MachineAnalysis {
            sites: self.sites.into_values().collect(),
            findings: self.findings,
        }
    }

    /// Raw operand sweep used when the CFG itself is broken.
    fn raw_sites(&self) -> Vec<SiteObs> {
        let mut v = Vec::new();
        for &(off, ref inst) in &self.insts {
            if let Some((op, m)) = linear_operand(inst) {
                v.push(SiteObs {
                    off,
                    op,
                    disp: m.disp,
                    scale_ok: m.index.map_or(true, |(_, s)| s == 1),
                    reachable: false,
                    idx: None,
                });
            }
        }
        v
    }

    // ── joins ──────────────────────────────────────────────────────────

    fn join_val(&mut self, block: usize, loc: JoinLoc, a: AbsVal, b: AbsVal) -> AbsVal {
        if a == b {
            return a;
        }
        match (a, b) {
            (
                AbsVal::Clamped {
                    margin: m1,
                    fresh: f1,
                },
                AbsVal::Clamped {
                    margin: m2,
                    fresh: f2,
                },
            ) => AbsVal::Clamped {
                margin: m1.min(m2),
                fresh: f1 && f2,
            },
            _ => {
                let clean = a.clean() && b.clean();
                // If one side already is this location's join symbol, keep
                // it (monotone: clean only decays).
                let id = match self.join_memo.get(&(block, loc)) {
                    Some(&id) => id,
                    None => {
                        let id = self.next_join;
                        self.next_join += 1;
                        self.join_memo.insert((block, loc), id);
                        id
                    }
                };
                let prior_clean = match (a, b) {
                    (
                        AbsVal::Sym {
                            id: ia, clean: ca, ..
                        },
                        _,
                    ) if ia == id => ca,
                    (
                        _,
                        AbsVal::Sym {
                            id: ib, clean: cb, ..
                        },
                    ) if ib == id => cb,
                    _ => true,
                };
                AbsVal::Sym {
                    id,
                    clean: clean && prior_clean,
                    add: 0,
                }
            }
        }
    }

    fn join_states(&mut self, block: usize, a: &State, b: &State) -> State {
        // Facts for join symbols, derived from the joined values below.
        let mut join_facts: Vec<(u64, Option<Fact>)> = Vec::new();
        let mut regs = [AbsVal::Const(0); 16];
        for r in 0..16 {
            let (av, bv) = (a.regs[r], b.regs[r]);
            regs[r] = self.join_val(block, JoinLoc::Reg(r as u8), av, bv);
            join_facts.extend(join_fact(a, av, b, bv, regs[r]));
        }
        let mut slots = BTreeMap::new();
        for (&d, &av) in &a.slots {
            if let Some(&bv) = b.slots.get(&d) {
                let v = self.join_val(block, JoinLoc::Slot(d), av, bv);
                join_facts.extend(join_fact(a, av, b, bv, v));
                slots.insert(d, v);
            }
        }
        let mut facts = BTreeMap::new();
        for (&k, &af) in &a.facts {
            if let Some(&bf) = b.facts.get(&k) {
                facts.insert(
                    k,
                    Fact {
                        covered: af.covered.min(bf.covered),
                        fresh: af.fresh && bf.fresh,
                        fused: af.fused && bf.fused,
                    },
                );
            }
        }
        // A join symbol's own key is about the value entering this block,
        // so an incoming fact under that key from an earlier visit does not
        // apply to it: the derived fact replaces the intersection.
        for (id, f) in join_facts {
            match f {
                Some(f) => facts.insert(FactKey::Sym(id), f),
                None => facts.remove(&FactKey::Sym(id)),
            };
        }
        State {
            regs,
            slots,
            facts,
            flags: if a.flags == b.flags {
                a.flags
            } else {
                Flags::Unknown
            },
            rbp_valid: a.rbp_valid && b.rbp_valid,
            slot_ptr: if a.slot_ptr == b.slot_ptr {
                a.slot_ptr
            } else {
                None
            },
        }
    }

    // ── transfer function ──────────────────────────────────────────────

    fn fresh(&self, off: usize, slot: u64, clean: bool) -> AbsVal {
        AbsVal::Sym {
            id: inst_id(off, slot),
            clean,
            add: 0,
        }
    }

    fn set_reg(&mut self, st: &mut State, off: usize, d: Reg, v: AbsVal) {
        match d.0 {
            R14 | R15 => {
                if self.recording {
                    self.findings.push(Finding {
                        func: self.func,
                        offset: off,
                        kind: FindingKind::WritesReservedReg {
                            reg: if d.0 == R14 { "r14" } else { "r15" },
                        },
                    });
                }
            }
            RBP => {
                // Callers handle the allowed `mov rbp, rsp` / `pop rbp`
                // idioms before reaching here.
                if self.recording {
                    self.findings.push(Finding {
                        func: self.func,
                        offset: off,
                        kind: FindingKind::WritesReservedReg { reg: "rbp" },
                    });
                }
            }
            _ => {
                st.regs[d.0 as usize] = v;
                if st.slot_ptr.is_some_and(|(r, _)| r == d.0) {
                    st.slot_ptr = None;
                }
            }
        }
    }

    /// Truncate a value to its low 32 bits (what a 32-bit destination
    /// write does).
    fn low32(&self, st: &State, off: usize, d: Reg, v: AbsVal) -> AbsVal {
        let _ = st;
        match v {
            AbsVal::Const(c) => AbsVal::Const(c & 0xFFFF_FFFF),
            // A clean symbol is already < 2^32; truncation is identity.
            AbsVal::Sym {
                clean: true,
                add: 0,
                ..
            } => v,
            AbsVal::Clamped { .. } | AbsVal::MemSizeMinus { .. } => v,
            _ => self.fresh(off, u64::from(d.0), true),
        }
    }

    fn mem_class(st: &State, m: Mem) -> MemClass {
        if m.base.0 == R14 {
            MemClass::Linear
        } else if m.base.0 == R15 && m.index.is_none() {
            MemClass::Ctx(m.disp)
        } else if m.base.0 == RBP && st.rbp_valid && m.index.is_none() {
            MemClass::Slot(m.disp)
        } else {
            MemClass::Other
        }
    }

    fn record_access(&mut self, st: &mut State, off: usize, op: MachineOp, m: Mem) {
        if self.recording {
            let idx = match m.index {
                None => IdxObs::Const {
                    v: 0,
                    fact: st.facts.get(&FactKey::Consts).copied(),
                },
                Some((r, _)) => match st.regs[r.0 as usize] {
                    AbsVal::Sym { id, clean, add } => IdxObs::Sym {
                        clean,
                        add,
                        fact: st.facts.get(&FactKey::Sym(id)).copied(),
                    },
                    AbsVal::Const(v) => IdxObs::Const {
                        v,
                        fact: st.facts.get(&FactKey::Consts).copied(),
                    },
                    AbsVal::Clamped { margin, .. } => IdxObs::Clamped { margin },
                    AbsVal::MemSizeMinus { .. } => IdxObs::MemSizeMinus,
                },
            };
            self.sites.insert(
                off,
                SiteObs {
                    off,
                    op,
                    disp: m.disp,
                    scale_ok: m.index.map_or(true, |(_, s)| s == 1),
                    reachable: true,
                    idx: Some(idx),
                },
            );
        }
        // Every linear-memory access consumes freshness: guards prove
        // things about *this* access; later reuse is an elision.
        for f in st.facts.values_mut() {
            f.fresh = false;
        }
        for v in st.regs.iter_mut() {
            if let AbsVal::Clamped { fresh, .. } = v {
                *fresh = false;
            }
        }
        for v in st.slots.values_mut() {
            if let AbsVal::Clamped { fresh, .. } = v {
                *fresh = false;
            }
        }
    }

    /// A load whose operand is not linear memory.
    fn load_val(&mut self, st: &State, off: usize, d: Reg, m: Mem, w: W) -> AbsVal {
        match Self::mem_class(st, m) {
            MemClass::Slot(disp) => {
                let v = st
                    .slots
                    .get(&disp)
                    .copied()
                    .unwrap_or_else(|| self.fresh(off, u64::from(d.0), false));
                match w {
                    W::W64 => v,
                    W::W32 => self.low32(st, off, d, v),
                }
            }
            MemClass::Ctx(CTX_MEM_SIZE) if w == W::W64 => AbsVal::MemSizeMinus { k: 0 },
            _ => self.fresh(off, u64::from(d.0), w == W::W32),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn transfer(&mut self, st: &mut State, off: usize, inst: &Inst) {
        use Inst::*;
        match *inst {
            MovRi32 { d, v } => self.set_reg(st, off, d, AbsVal::Const(v as u32 as u64)),
            MovRi64Sx { d, v } => self.set_reg(st, off, d, AbsVal::Const(v as i64 as u64)),
            MovAbs { d, v } => self.set_reg(st, off, d, AbsVal::Const(v as u64)),
            MovRr { w, d, s } => {
                if w == W::W64 && d.0 == RBP && s.0 == RSP {
                    // The frame-pointer idiom: rbp now addresses the frame.
                    st.rbp_valid = true;
                    return;
                }
                let sv = st.regs[s.0 as usize];
                let v = match w {
                    W::W64 => sv,
                    W::W32 => self.low32(st, off, d, sv),
                };
                self.set_reg(st, off, d, v);
            }
            MovRm { w, d, m } => {
                if Self::mem_class(st, m) == MemClass::Linear {
                    let op = if w == W::W64 {
                        MachineOp::Load64
                    } else {
                        MachineOp::Load32
                    };
                    self.record_access(st, off, op, m);
                    let v = self.fresh(off, u64::from(d.0), w == W::W32);
                    self.set_reg(st, off, d, v);
                } else {
                    let v = self.load_val(st, off, d, m, w);
                    self.set_reg(st, off, d, v);
                }
            }
            Movzx8 { d, m } | Movzx16 { d, m } => {
                if Self::mem_class(st, m) == MemClass::Linear {
                    let op = if matches!(inst, Movzx8 { .. }) {
                        MachineOp::Load8Z
                    } else {
                        MachineOp::Load16Z
                    };
                    self.record_access(st, off, op, m);
                }
                let v = self.fresh(off, u64::from(d.0), true);
                self.set_reg(st, off, d, v);
            }
            Movsx8 { w, d, m } | Movsx16 { w, d, m } => {
                if Self::mem_class(st, m) == MemClass::Linear {
                    let op = match (matches!(inst, Movsx8 { .. }), w) {
                        (true, W::W32) => MachineOp::Load8S32,
                        (true, W::W64) => MachineOp::Load8S64,
                        (false, W::W32) => MachineOp::Load16S32,
                        (false, W::W64) => MachineOp::Load16S64,
                    };
                    self.record_access(st, off, op, m);
                }
                let v = self.fresh(off, u64::from(d.0), w == W::W32);
                self.set_reg(st, off, d, v);
            }
            MovsxdM { d, m } => {
                if Self::mem_class(st, m) == MemClass::Linear {
                    self.record_access(st, off, MachineOp::Load32S64, m);
                }
                let v = self.fresh(off, u64::from(d.0), false);
                self.set_reg(st, off, d, v);
            }
            MovsxdR { d, .. } => {
                let v = self.fresh(off, u64::from(d.0), false);
                self.set_reg(st, off, d, v);
            }
            MovMr { w, m, s } => match Self::mem_class(st, m) {
                MemClass::Linear => {
                    let op = if w == W::W64 {
                        MachineOp::Store64
                    } else {
                        MachineOp::Store32
                    };
                    self.record_access(st, off, op, m);
                }
                MemClass::Slot(disp) => {
                    let sv = st.regs[s.0 as usize];
                    let v = match w {
                        W::W64 => sv,
                        W::W32 => self.low32(st, off, s, sv),
                    };
                    st.slots.insert(disp, v);
                }
                MemClass::Ctx(_) => {
                    if self.recording {
                        self.findings.push(Finding {
                            func: self.func,
                            offset: off,
                            kind: FindingKind::WritesVmCtx,
                        });
                    }
                }
                MemClass::Other => {}
            },
            MovMr8 { m, .. } | MovMr16 { m, .. } => match Self::mem_class(st, m) {
                MemClass::Linear => {
                    let op = if matches!(inst, MovMr8 { .. }) {
                        MachineOp::Store8
                    } else {
                        MachineOp::Store16
                    };
                    self.record_access(st, off, op, m);
                }
                MemClass::Slot(disp) => {
                    st.slots.remove(&disp);
                }
                MemClass::Ctx(_) => {
                    if self.recording {
                        self.findings.push(Finding {
                            func: self.func,
                            offset: off,
                            kind: FindingKind::WritesVmCtx,
                        });
                    }
                }
                MemClass::Other => {}
            },
            AluRr { w, op, d, s } => match op {
                self::AluRr::Cmp => {
                    st.flags = if w == W::W64 {
                        Flags::CmpRR { l: d.0, r: s.0 }
                    } else {
                        Flags::Unknown
                    };
                }
                self::AluRr::Test => st.flags = Flags::Unknown,
                self::AluRr::Xor if d == s => {
                    self.set_reg(st, off, d, AbsVal::Const(0));
                    st.flags = Flags::Unknown;
                }
                self::AluRr::Add if w == W::W64 => {
                    let v = add_vals(st.regs[d.0 as usize], st.regs[s.0 as usize], || {
                        self.fresh(off, u64::from(d.0), false)
                    });
                    self.set_reg(st, off, d, v);
                    st.flags = Flags::Unknown;
                }
                self::AluRr::Sub if w == W::W64 => {
                    let v = sub_vals(st.regs[d.0 as usize], st.regs[s.0 as usize], || {
                        self.fresh(off, u64::from(d.0), false)
                    });
                    self.set_reg(st, off, d, v);
                    st.flags = Flags::Unknown;
                }
                _ => {
                    let v = self.fresh(off, u64::from(d.0), w == W::W32);
                    self.set_reg(st, off, d, v);
                    st.flags = Flags::Unknown;
                }
            },
            AluRi { w, op, d, v } => {
                match op {
                    self::AluRi::Cmp => {
                        st.flags = Flags::Unknown;
                        return;
                    }
                    self::AluRi::Add if w == W::W64 => {
                        let nv = add_vals(
                            st.regs[d.0 as usize],
                            AbsVal::Const(v as i64 as u64),
                            || self.fresh(off, u64::from(d.0), false),
                        );
                        self.set_reg(st, off, d, nv);
                    }
                    self::AluRi::Sub if w == W::W64 => {
                        let nv = sub_vals(
                            st.regs[d.0 as usize],
                            AbsVal::Const(v as i64 as u64),
                            || self.fresh(off, u64::from(d.0), false),
                        );
                        self.set_reg(st, off, d, nv);
                    }
                    self::AluRi::And if w == W::W64 && v >= 0 => {
                        // Masking with a non-negative imm32 bounds the value.
                        let nv = self.fresh(off, u64::from(d.0), true);
                        self.set_reg(st, off, d, nv);
                    }
                    _ => {
                        let nv = self.fresh(off, u64::from(d.0), w == W::W32);
                        self.set_reg(st, off, d, nv);
                    }
                }
                st.flags = Flags::Unknown;
            }
            CmpRm { w, d, m } => {
                if Self::mem_class(st, m) == MemClass::Linear {
                    // Never a legitimate shape — surfaces as a count or
                    // shape mismatch downstream.
                    self.record_access(st, off, MachineOp::CmpM, m);
                    st.flags = Flags::Unknown;
                } else if w == W::W64 && m == Mem::base(Reg(R15), CTX_MEM_SIZE) {
                    st.flags = Flags::CmpMemSize(st.regs[d.0 as usize]);
                } else if w == W::W64
                    && m.base.0 == R15
                    && m.index.is_none()
                    && limit_slot(m.disp).is_some()
                {
                    st.flags = Flags::CmpLimit {
                        lhs: st.regs[d.0 as usize],
                        slot: limit_slot(m.disp).expect("checked above"),
                    };
                } else {
                    st.flags = Flags::Unknown;
                }
            }
            ImulRr { w, d, .. } | ImulRi { w, d, .. } | Neg { w, d } => {
                let v = self.fresh(off, u64::from(d.0), w == W::W32);
                self.set_reg(st, off, d, v);
                st.flags = Flags::Unknown;
            }
            CdqCqo { w } => {
                // Writes rdx from rax's sign; does not touch flags.
                let v = self.fresh(off, 2, w == W::W32);
                self.set_reg(st, off, Reg(2), v);
            }
            Idiv { w, .. } | Div { w, .. } => {
                let a = self.fresh(off, 0, w == W::W32);
                let d = self.fresh(off, 2, w == W::W32);
                self.set_reg(st, off, Reg(0), a);
                self.set_reg(st, off, Reg(2), d);
                st.flags = Flags::Unknown;
            }
            ShiftCl { w, d, .. } => {
                let v = self.fresh(off, u64::from(d.0), w == W::W32);
                self.set_reg(st, off, d, v);
                st.flags = Flags::Unknown;
            }
            ShiftImm { w, op, d, v } => {
                let clean = match w {
                    W::W32 => true,
                    W::W64 => {
                        op == ShiftOp::Shr
                            && (v >= 32
                                || matches!(st.regs[d.0 as usize], AbsVal::MemSizeMinus { .. }))
                    }
                };
                let nv = self.fresh(off, u64::from(d.0), clean);
                self.set_reg(st, off, d, nv);
                st.flags = Flags::Unknown;
            }
            Lea { w, d, m } => {
                // lea computes an address without touching flags.
                let base = st.regs[m.base.0 as usize];
                let frame_slot =
                    (m.index.is_none() && m.base.0 == RBP && st.rbp_valid).then_some(m.disp);
                let v = match m.index {
                    None => add_vals(base, AbsVal::Const(m.disp as i64 as u64), || {
                        self.fresh(off, u64::from(d.0), false)
                    }),
                    Some((i, 1)) => {
                        let s1 = add_vals(base, st.regs[i.0 as usize], || {
                            self.fresh(off, u64::from(d.0), false)
                        });
                        add_vals(s1, AbsVal::Const(m.disp as i64 as u64), || {
                            self.fresh(off, u64::from(d.0), false)
                        })
                    }
                    Some(_) => self.fresh(off, u64::from(d.0), false),
                };
                let v = match w {
                    W::W64 => v,
                    W::W32 => self.low32(st, off, d, v),
                };
                self.set_reg(st, off, d, v);
                // The host-call result protocol: a frame-slot address in a
                // register (set after `set_reg`, which clears the marker).
                if let Some(disp) = frame_slot {
                    if !matches!(d.0, RSP | RBP | R14 | R15) {
                        st.slot_ptr = Some((d.0, disp));
                    }
                }
            }
            BitCnt { d, .. } => {
                let v = self.fresh(off, u64::from(d.0), true);
                self.set_reg(st, off, d, v);
                st.flags = Flags::Unknown;
            }
            Setcc { d, .. } => {
                // Writes only the low byte; preserves flags.
                let clean = st.regs[d.0 as usize].clean();
                let v = self.fresh(off, u64::from(d.0), clean);
                self.set_reg(st, off, d, v);
            }
            Cmov { w, cc, d, s } => {
                let sv = st.regs[s.0 as usize];
                let clamp =
                    w == W::W64 && cc == Cc::A && st.flags == Flags::CmpRR { l: d.0, r: s.0 };
                if clamp {
                    if let AbsVal::MemSizeMinus { k } = sv {
                        // d = min(d, mem_size - k): the clamp idiom.
                        self.set_reg(
                            st,
                            off,
                            d,
                            AbsVal::Clamped {
                                margin: k,
                                fresh: true,
                            },
                        );
                        return;
                    }
                }
                let dv = st.regs[d.0 as usize];
                let v = if dv == sv {
                    dv
                } else {
                    let clean = match w {
                        W::W32 => true,
                        W::W64 => dv.clean() && sv.clean(),
                    };
                    self.fresh(off, u64::from(d.0), clean)
                };
                self.set_reg(st, off, d, v);
            }
            CallR { .. } | CallM { .. } => {
                if let CallM { m } = *inst {
                    if Self::mem_class(st, m) == MemClass::Linear {
                        self.record_access(st, off, MachineOp::CallM, m);
                    }
                }
                // A host import writes its result through the slot pointer
                // handed to it; assumed type-correct at the ABI boundary.
                if let Some((_, disp)) = st.slot_ptr.take() {
                    let v = self.fresh(off, SLOT_RESULT_TAG, true);
                    st.slots.insert(disp, v);
                }
                // Caller-saved registers die; rax carries a typed result
                // (clean by the ABI assumption). Facts and frame slots
                // survive: mem_size only grows, and callees cannot reach
                // this frame.
                let rax = self.fresh(off, 0, true);
                self.set_reg(st, off, Reg(0), rax);
                for r in [1u8, 2, 6, 7, 8, 9, 10, 11] {
                    let v = self.fresh(off, u64::from(r), false);
                    self.set_reg(st, off, Reg(r), v);
                }
                st.flags = Flags::Unknown;
            }
            Push { .. } | Nop => {}
            Pop { r } => {
                if r.0 == RBP {
                    // Epilogue: the frame is gone.
                    st.rbp_valid = false;
                    st.slots.clear();
                } else {
                    let v = self.fresh(off, u64::from(r.0), false);
                    self.set_reg(st, off, r, v);
                }
            }
            Fload { double, m, .. } => {
                if Self::mem_class(st, m) == MemClass::Linear {
                    let op = if double {
                        MachineOp::FLoad64
                    } else {
                        MachineOp::FLoad32
                    };
                    self.record_access(st, off, op, m);
                }
            }
            Fstore { double, m, .. } => match Self::mem_class(st, m) {
                MemClass::Linear => {
                    let op = if double {
                        MachineOp::FStore64
                    } else {
                        MachineOp::FStore32
                    };
                    self.record_access(st, off, op, m);
                }
                MemClass::Slot(disp) => {
                    st.slots.remove(&disp);
                }
                _ => {}
            },
            Ucomis { .. } => st.flags = Flags::Unknown,
            CvttF2i { w, d, .. } | MovqRx { w, d, .. } => {
                let v = self.fresh(off, u64::from(d.0), w == W::W32);
                self.set_reg(st, off, d, v);
            }
            // Pure SSE traffic: no integer state, no flags.
            Fmov { .. }
            | Farith { .. }
            | CvtI2f { .. }
            | CvtD2s { .. }
            | CvtS2d { .. }
            | MovqXr { .. }
            | Rounds { .. }
            | Pxor { .. }
            | Fbit { .. } => {}
            Jcc { .. } | Jmp { .. } | Ret | Ud2Trap { .. } => {
                unreachable!("control flow handled at block level")
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemClass {
    Linear,
    Ctx(i32),
    Slot(i32),
    Other,
}

/// The fact covering the value `v` itself in `st`: `v + covered <=
/// mem_size`. A symbolic value `sym + add` is covered by `sym`'s fact
/// less `add`; a constant by the constant pool's fact less the constant.
fn value_fact(st: &State, v: AbsVal) -> Option<Fact> {
    let (key, add) = match v {
        AbsVal::Sym { id, add, .. } => (FactKey::Sym(id), add),
        AbsVal::Const(c) => (FactKey::Consts, c),
        _ => return None,
    };
    let f = st.facts.get(&key)?;
    Some(Fact {
        covered: f.covered.checked_sub(add)?,
        ..*f
    })
}

/// The fact for the join symbol `joined` that a location holding `av` in
/// `a` and `bv` in `b` was joined into, as `(symbol, fact)`; `None` when
/// the join produced no new symbol. The symbol is covered by what covers
/// the location's value on both paths. Once the symbol exists (`av` is
/// `joined`), its fact only holds or is dropped, never weakened step by
/// step, so the fixpoint converges.
fn join_fact(
    a: &State,
    av: AbsVal,
    b: &State,
    bv: AbsVal,
    joined: AbsVal,
) -> Option<(u64, Option<Fact>)> {
    let AbsVal::Sym { id, add: 0, .. } = joined else {
        return None;
    };
    if av == bv {
        return None;
    }
    let f = match (value_fact(a, av), value_fact(b, bv)) {
        (Some(x), Some(y)) if av != joined || y.covered >= x.covered => Some(Fact {
            covered: x.covered.min(y.covered),
            fresh: x.fresh && y.fresh,
            fused: x.fused && y.fused,
        }),
        _ => None,
    };
    Some((id, f))
}

/// Record the guard fact on the fall-through edge of `ja oob`.
fn add_fact(st: &mut State, lhs: AbsVal) {
    let (key, covered) = match lhs {
        AbsVal::Sym { id, add, .. } => (FactKey::Sym(id), add),
        AbsVal::Const(c) => (FactKey::Consts, c),
        _ => return,
    };
    refresh_fact(st, key, covered, false);
}

/// Strengthen `key`'s fact to at least `covered` and mark it fresh, as
/// proven by a classic (`fused == false`) or fused guard.
fn refresh_fact(st: &mut State, key: FactKey, covered: u64, fused: bool) {
    let e = st.facts.entry(key).or_insert(Fact {
        covered: 0,
        fresh: true,
        fused,
    });
    e.covered = e.covered.max(covered);
    e.fresh = true;
    e.fused = fused;
}

/// Record the fused-guard fact on the fall-through edge of `jae oob`:
/// the compared value plus the slot's extent fits in `mem_size`. `extent`
/// of 0 marks an unused slot and proves nothing (codegen never compares
/// against one).
fn add_limit_fact(st: &mut State, lhs: AbsVal, extent: u64) {
    if extent == 0 {
        return;
    }
    let (key, covered) = match lhs {
        AbsVal::Sym { id, add, .. } => (FactKey::Sym(id), add.saturating_add(extent)),
        AbsVal::Const(c) => (FactKey::Consts, c.saturating_add(extent)),
        _ => return,
    };
    refresh_fact(st, key, covered, true);
}

fn add_vals(a: AbsVal, b: AbsVal, fresh: impl FnOnce() -> AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Const(x), AbsVal::Const(y)) => AbsVal::Const(x.wrapping_add(y)),
        (AbsVal::Sym { id, clean, add }, AbsVal::Const(c))
        | (AbsVal::Const(c), AbsVal::Sym { id, clean, add }) => AbsVal::Sym {
            id,
            clean,
            add: add.wrapping_add(c),
        },
        // mem_size - k + c == mem_size - (k - c)
        (AbsVal::MemSizeMinus { k }, AbsVal::Const(c))
        | (AbsVal::Const(c), AbsVal::MemSizeMinus { k }) => AbsVal::MemSizeMinus {
            k: k.wrapping_sub(c),
        },
        _ => fresh(),
    }
}

fn sub_vals(a: AbsVal, b: AbsVal, fresh: impl FnOnce() -> AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Const(x), AbsVal::Const(y)) => AbsVal::Const(x.wrapping_sub(y)),
        (AbsVal::Sym { id, clean, add }, AbsVal::Const(c)) => AbsVal::Sym {
            id,
            clean,
            add: add.wrapping_sub(c),
        },
        // The clamp limit: t = mem_size - size.
        (AbsVal::MemSizeMinus { k }, AbsVal::Const(c)) => AbsVal::MemSizeMinus {
            k: k.wrapping_add(c),
        },
        _ => fresh(),
    }
}

/// If `inst` has a memory operand based on `r14`, classify it.
fn linear_operand(inst: &Inst) -> Option<(MachineOp, Mem)> {
    use Inst::*;
    let (op, m) = match *inst {
        MovRm { w: W::W32, m, .. } => (MachineOp::Load32, m),
        MovRm { w: W::W64, m, .. } => (MachineOp::Load64, m),
        Movzx8 { m, .. } => (MachineOp::Load8Z, m),
        Movzx16 { m, .. } => (MachineOp::Load16Z, m),
        Movsx8 { w: W::W32, m, .. } => (MachineOp::Load8S32, m),
        Movsx8 { w: W::W64, m, .. } => (MachineOp::Load8S64, m),
        Movsx16 { w: W::W32, m, .. } => (MachineOp::Load16S32, m),
        Movsx16 { w: W::W64, m, .. } => (MachineOp::Load16S64, m),
        MovsxdM { m, .. } => (MachineOp::Load32S64, m),
        MovMr { w: W::W32, m, .. } => (MachineOp::Store32, m),
        MovMr { w: W::W64, m, .. } => (MachineOp::Store64, m),
        MovMr8 { m, .. } => (MachineOp::Store8, m),
        MovMr16 { m, .. } => (MachineOp::Store16, m),
        Fload { double, m, .. } => (
            if double {
                MachineOp::FLoad64
            } else {
                MachineOp::FLoad32
            },
            m,
        ),
        Fstore { double, m, .. } => (
            if double {
                MachineOp::FStore64
            } else {
                MachineOp::FStore32
            },
            m,
        ),
        CmpRm { m, .. } => (MachineOp::CmpM, m),
        CallM { m } => (MachineOp::CallM, m),
        _ => return None,
    };
    (m.base.0 == R14).then_some((op, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::encode;

    /// Encode `insts`; a `Some(t)` beside a branch points it at `insts[t]`.
    fn assemble(insts: &[(Inst, Option<usize>)]) -> Vec<u8> {
        let mut offs = vec![0];
        for (inst, _) in insts {
            let mut b = Vec::new();
            encode(inst, &mut b);
            offs.push(offs.last().unwrap() + b.len());
        }
        let mut out = Vec::new();
        for (i, &(inst, target)) in insts.iter().enumerate() {
            let rel = target.map_or(0, |t| offs[t] as i32 - offs[i + 1] as i32);
            let inst = match inst {
                Inst::Jcc { cc, .. } => Inst::Jcc { cc, rel },
                Inst::Jmp { .. } => Inst::Jmp { rel },
                other => other,
            };
            encode(&inst, &mut out);
        }
        out
    }

    /// `rbx` counts up from 0; a fused guard against slot 0 (extent 65)
    /// heads each iteration and guards `movzx esi, byte [r14+rbx+64]`.
    /// With `escape`, a second branch reaches the access unguarded.
    fn counted_loop(escape: bool) -> Vec<u8> {
        let jcc = |cc| Inst::Jcc { cc, rel: 0 };
        let mut insts = vec![
            (
                Inst::AluRr {
                    w: W::W32,
                    op: AluRr::Xor,
                    d: Reg::RBX,
                    s: Reg::RBX,
                },
                None,
            ),
            (
                Inst::CmpRm {
                    w: W::W64,
                    d: Reg::RBX,
                    m: Mem::base(Reg::R15, CTX_MEM_LIMITS),
                },
                None,
            ),
            (jcc(Cc::Ae), Some(if escape { 10 } else { 8 })),
            (
                Inst::Movzx8 {
                    d: Reg::RSI,
                    m: Mem {
                        base: Reg::R14,
                        index: Some((Reg::RBX, 1)),
                        disp: 64,
                    },
                },
                None,
            ),
            (
                Inst::AluRi {
                    w: W::W32,
                    op: AluRi::Add,
                    d: Reg::RBX,
                    v: 1,
                },
                None,
            ),
            (
                Inst::AluRi {
                    w: W::W32,
                    op: AluRi::Cmp,
                    d: Reg::RBX,
                    v: 100,
                },
                None,
            ),
            (jcc(Cc::L), Some(1)),
        ];
        if escape {
            insts.extend([
                (
                    Inst::AluRi {
                        w: W::W32,
                        op: AluRi::Cmp,
                        d: Reg::RBX,
                        v: 200,
                    },
                    None,
                ),
                (jcc(Cc::L), Some(3)),
            ]);
        }
        insts.extend([(Inst::Ret, None), (Inst::Ud2Trap { code: 1 }, None)]);
        assemble(&insts)
    }

    fn access_fact(code: &[u8]) -> Option<Fact> {
        let ma = analyze(0, code, &[], &[65]);
        assert!(ma.findings.is_empty(), "{:?}", ma.findings);
        match ma.sites.as_slice() {
            [SiteObs {
                idx: Some(IdxObs::Sym { fact, .. }),
                ..
            }] => *fact,
            other => panic!("expected one symbolic access, got {other:?}"),
        }
    }

    #[test]
    fn guard_on_constant_then_symbolic_operand_covers_its_access() {
        // On the first visit `rbx` is the constant 0; later it is the
        // loop's join symbol. The access block joins the two, and the
        // guard right before it covers the access on both paths.
        let fact = access_fact(&counted_loop(false)).expect("the guard covers the access");
        assert_eq!(fact.covered, 65);
        assert!(fact.fresh && fact.fused);
    }

    #[test]
    fn unguarded_path_into_the_access_drops_the_join_fact() {
        assert_eq!(access_fact(&counted_loop(true)), None);
    }
}
