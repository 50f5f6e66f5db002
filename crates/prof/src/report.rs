//! Offline sample resolution and aggregation.
//!
//! Nothing here runs in signal context: once a session has stopped, the
//! raw `(pc, t_ns, thread)` triples are resolved against the region
//! registry, the sampled instruction is classified via `lb-verify`, and
//! the result is folded into a per-class self-time table. Samples whose
//! PC falls in no registered region (host code, the interpreter, libc)
//! are counted under `unresolved` and `prof.samples.unresolved` — never
//! silently discarded, so attribution percentages always have a visible
//! denominator.

use crate::registry;
use crate::sampler::RawProfile;
use lb_verify::InstClass;

/// What one sample resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleClass {
    /// Inside a registered function and decodable: a bounds-check
    /// attribution bucket.
    Inst(InstClass),
    /// Inside a registered region but outside function bodies
    /// (trampolines, alignment padding) or undecodable.
    Runtime,
    /// No registered region contains the PC (host / runtime-support /
    /// interpreter code).
    Unresolved,
}

impl SampleClass {
    /// Stable label for traces and tables.
    pub fn label(self) -> &'static str {
        match self {
            SampleClass::Inst(c) => c.label(),
            SampleClass::Runtime => "runtime",
            SampleClass::Unresolved => "unresolved",
        }
    }
}

/// One resolved sample.
#[derive(Debug, Clone)]
pub struct ResolvedSample {
    /// Sampled program counter.
    pub pc: u64,
    /// Capture time (monotonic ns).
    pub t_ns: u64,
    /// Profiler thread id.
    pub thread: u32,
    /// Attribution bucket.
    pub class: SampleClass,
    /// Tier label of the containing region, if resolved.
    pub tier: Option<&'static str>,
    /// Strategy label of the containing region, if resolved.
    pub strategy: Option<&'static str>,
    /// Defined-function index, if the PC fell inside a function body.
    pub func_index: Option<u32>,
    /// Wasm instruction index attributed through the side table.
    pub wasm_pc: Option<u32>,
}

/// Aggregated session profile.
#[derive(Debug)]
pub struct ProfReport {
    /// All captured samples, resolved.
    pub samples: Vec<ResolvedSample>,
    /// Total samples captured.
    pub total: u64,
    /// Per-class counts: guard / clamp / trap-path / mem-access /
    /// compute.
    pub guard: u64,
    /// See `guard`.
    pub clamp: u64,
    /// See `guard`.
    pub trap_path: u64,
    /// See `guard`.
    pub mem_access: u64,
    /// See `guard`.
    pub compute: u64,
    /// In-region but unattributable (padding, trampolines).
    pub runtime: u64,
    /// Outside every registered region.
    pub unresolved: u64,
    /// Samples lost to ring overflow.
    pub dropped: u64,
    /// Slots claimed but unstamped at drain time.
    pub incomplete: u64,
    /// Configured rate.
    pub hz: u32,
    /// Session bounds, monotonic ns.
    pub started_ns: u64,
    /// See `started_ns`.
    pub stopped_ns: u64,
}

impl ProfReport {
    /// `n` as a percentage of all captured samples (0 when empty).
    pub fn pct(&self, n: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            n as f64 * 100.0 / self.total as f64
        }
    }

    /// Samples that resolved to a registered region.
    pub fn resolved(&self) -> u64 {
        self.total - self.unresolved
    }

    /// Guard percentage over *resolved* samples only — the number the
    /// acceptance criteria bound, independent of how much host code ran.
    pub fn guard_pct_resolved(&self) -> f64 {
        let r = self.resolved();
        if r == 0 {
            0.0
        } else {
            self.guard as f64 * 100.0 / r as f64
        }
    }

    /// Clamp percentage over resolved samples.
    pub fn clamp_pct_resolved(&self) -> f64 {
        let r = self.resolved();
        if r == 0 {
            0.0
        } else {
            self.clamp as f64 * 100.0 / r as f64
        }
    }

    /// `(label, count)` rows in a fixed order, for tables and JSONL.
    pub fn class_counts(&self) -> [(&'static str, u64); 7] {
        [
            ("guard", self.guard),
            ("clamp", self.clamp),
            ("trap_path", self.trap_path),
            ("mem_access", self.mem_access),
            ("compute", self.compute),
            ("runtime", self.runtime),
            ("unresolved", self.unresolved),
        ]
    }
}

fn resolve_one(pc: u64, t_ns: u64, thread: u32) -> ResolvedSample {
    let Some((region, off)) = registry::lookup(pc, t_ns) else {
        return ResolvedSample {
            pc,
            t_ns,
            thread,
            class: SampleClass::Unresolved,
            tier: None,
            strategy: None,
            func_index: None,
            wasm_pc: None,
        };
    };
    let info = &region.info;
    let fi = info
        .funcs
        .partition_point(|f| f.start <= off)
        .checked_sub(1)
        .filter(|&i| off < info.funcs[i].end);
    let (class, func_index, wasm_pc) = match fi {
        Some(i) => {
            let f = &info.funcs[i];
            let classes = region.classes(i);
            let rel = classes.map_or(off - f.start, |cl| {
                lb_verify::charged_offset(cl, off - f.start)
            });
            let class = classes
                .and_then(|cl| lb_verify::class_at(cl, rel))
                .map_or(SampleClass::Runtime, SampleClass::Inst);
            let wasm_pc = f
                .pc_map
                .partition_point(|&(c, _)| c <= rel)
                .checked_sub(1)
                .map(|j| f.pc_map[j].1);
            (class, Some(f.func_index), wasm_pc)
        }
        None => (SampleClass::Runtime, None, None),
    };
    ResolvedSample {
        pc,
        t_ns,
        thread,
        class,
        tier: Some(info.tier),
        strategy: Some(info.strategy),
        func_index,
        wasm_pc,
    }
}

/// Resolve and aggregate a stopped session.
pub fn resolve_profile(raw: RawProfile) -> ProfReport {
    let mut report = ProfReport {
        samples: Vec::with_capacity(raw.samples.len()),
        total: raw.samples.len() as u64,
        guard: 0,
        clamp: 0,
        trap_path: 0,
        mem_access: 0,
        compute: 0,
        runtime: 0,
        unresolved: 0,
        dropped: raw.dropped,
        incomplete: raw.incomplete,
        hz: raw.hz,
        started_ns: raw.started_ns,
        stopped_ns: raw.stopped_ns,
    };
    for s in &raw.samples {
        let r = resolve_one(s.pc, s.t_ns, s.thread);
        match r.class {
            SampleClass::Inst(InstClass::GuardCompare) => report.guard += 1,
            SampleClass::Inst(InstClass::Clamp) => report.clamp += 1,
            SampleClass::Inst(InstClass::TrapPath) => report.trap_path += 1,
            SampleClass::Inst(InstClass::MemoryAccess) => report.mem_access += 1,
            SampleClass::Inst(InstClass::Compute) => report.compute += 1,
            SampleClass::Runtime => report.runtime += 1,
            SampleClass::Unresolved => report.unresolved += 1,
        }
        report.samples.push(r);
    }
    if report.unresolved > 0 {
        lb_telemetry::counter("prof.samples.unresolved").add(report.unresolved);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{register_region, FuncRange, RegionInfo};
    use lb_verify::isa::{encode, Cc, Inst, Mem, Reg, W};

    fn guard_body() -> Vec<u8> {
        let mut code = Vec::new();
        for i in &[
            Inst::Lea {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::RCX, 4),
            },
            Inst::CmpRm {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::R15, 8),
            },
            Inst::Jcc { cc: Cc::A, rel: 2 },
            Inst::MovRm {
                w: W::W32,
                d: Reg::RAX,
                m: Mem {
                    base: Reg::R14,
                    index: Some((Reg::RCX, 1)),
                    disp: 0,
                },
            },
            Inst::Ret,
            Inst::Ud2Trap { code: 1 },
        ] {
            encode(i, &mut code);
        }
        code
    }

    #[test]
    fn classifies_and_counts_through_registry() {
        let _g = crate::test_lock();
        crate::set_sampling(997);
        let code = guard_body();
        let base = 0x6100_0000usize;
        let len = code.len();
        register_region(RegionInfo {
            base,
            len,
            code,
            tier: "baseline",
            strategy: "trap",
            mem_size_disp: 8,
            funcs: vec![FuncRange {
                func_index: 3,
                start: 0,
                end: len as u32,
                pc_map: vec![(0, 0), (4, 17)],
            }],
        });
        let now = lb_telemetry::clock::now_ns();
        // Samples on the guard compare (charged to the guard's `lea`), on
        // the r14-based load (charged to the guard's `ja`), on the `ret`
        // (charged to the load), and one outside any region. Offsets come
        // from the decoder so the test does not hardcode encoding lengths.
        let insts = lb_verify::decode::decode_all(&guard_body()).unwrap();
        let cmp_off = insts[1].0;
        let load_off = insts[3].0;
        let ret_off = insts[4].0;
        let raw = RawProfile {
            samples: vec![
                crate::Sample {
                    pc: (base + ret_off) as u64,
                    t_ns: now,
                    thread: 1,
                },
                crate::Sample {
                    pc: (base + cmp_off) as u64,
                    t_ns: now,
                    thread: 1,
                },
                crate::Sample {
                    pc: (base + load_off) as u64,
                    t_ns: now,
                    thread: 1,
                },
                crate::Sample {
                    pc: 0x1234,
                    t_ns: now,
                    thread: 1,
                },
            ],
            dropped: 0,
            incomplete: 0,
            hz: 997,
            started_ns: now - 1,
            stopped_ns: now + 1,
        };
        let rep = resolve_profile(raw);
        assert_eq!(rep.total, 4);
        assert_eq!(rep.guard, 2, "samples: {:?}", rep.samples);
        assert_eq!(rep.mem_access, 1);
        assert_eq!(rep.unresolved, 1);
        assert_eq!(
            rep.guard
                + rep.clamp
                + rep.trap_path
                + rep.mem_access
                + rep.compute
                + rep.runtime
                + rep.unresolved,
            rep.total
        );
        let s0 = &rep.samples[0];
        assert_eq!(s0.class, SampleClass::Inst(InstClass::MemoryAccess));
        assert_eq!(s0.func_index, Some(3));
        assert_eq!(s0.wasm_pc, Some(17));
        assert_eq!(s0.strategy, Some("trap"));
        assert_eq!(rep.samples[1].wasm_pc, Some(0), "charged to the lea");
        crate::set_sampling(0);
    }
}
