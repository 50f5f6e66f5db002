//! Opt-in post-codegen translation validation.
//!
//! With `LB_VERIFY=1` every function the JIT compiles (at any tier) is
//! decoded and re-proven by `lb-verify` straight after codegen; findings
//! are logged to stderr and counted. With `LB_VERIFY=strict` a finding
//! aborts compilation instead. Off by default — validation roughly doubles
//! per-function compile time.
//!
//! Counters (all monotonic):
//! * `verify.sites_checked` — linear-memory sites examined
//! * `verify.proven_guarded` — proven by a check at the site, the guard
//!   region, or a static bound
//! * `verify.proven_elided` — proven by a re-checked plan elision
//! * `verify.proven_hoisted` — fast-loop-body sites proven by a matched
//!   loop-preheader guard (mirrors `jit.checks.hoisted`)
//! * `verify.proven_fused` — fused compare-and-trap guards proven exact
//!   against the per-extent limit table (mirrors `jit.checks.fused`)
//! * `verify.findings` — everything that did not prove

use crate::codegen::OptLevel;
use lb_core::BoundsStrategy;
use lb_verify::{verify_function, FuncInput, FuncReport};
use lb_wasm::validate::ModuleMeta;
use lb_wasm::{Module, PAGE_SIZE};
use std::sync::OnceLock;

/// How much teeth `LB_VERIFY` has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// No validation (the default).
    Off,
    /// Validate and log findings to stderr.
    Log,
    /// Validate and panic on the first finding (fails compilation).
    Strict,
}

/// The `LB_VERIFY` setting, read once per process.
pub fn mode() -> VerifyMode {
    static MODE: OnceLock<VerifyMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("LB_VERIFY").as_deref() {
        Ok("strict") => VerifyMode::Strict,
        Ok("") | Ok("0") | Err(_) => VerifyMode::Off,
        Ok(_) => VerifyMode::Log,
    })
}

struct VerifyCounters {
    sites: lb_telemetry::Counter,
    guarded: lb_telemetry::Counter,
    elided: lb_telemetry::Counter,
    hoisted: lb_telemetry::Counter,
    fused: lb_telemetry::Counter,
    findings: lb_telemetry::Counter,
}

fn counters() -> &'static VerifyCounters {
    static C: OnceLock<VerifyCounters> = OnceLock::new();
    C.get_or_init(|| VerifyCounters {
        sites: lb_telemetry::counter("verify.sites_checked"),
        guarded: lb_telemetry::counter("verify.proven_guarded"),
        elided: lb_telemetry::counter("verify.proven_elided"),
        hoisted: lb_telemetry::counter("verify.proven_hoisted"),
        fused: lb_telemetry::counter("verify.proven_fused"),
        findings: lb_telemetry::counter("verify.findings"),
    })
}

/// Validate one just-compiled function and record the outcome.
///
/// `opt` must be the tier the code was compiled at: the baseline tier
/// ignores the analysis plan, so the verifier must too. Panics on any
/// finding in [`VerifyMode::Strict`].
pub fn verify_emitted(
    module: &Module,
    meta: &ModuleMeta,
    plan: Option<&lb_analysis::ModulePlan>,
    strategy: BoundsStrategy,
    opt: OptLevel,
    defined_idx: usize,
    code: &[u8],
) -> FuncReport {
    let mem_min_bytes = match plan {
        Some(p) => p.mem_min_bytes,
        None => module
            .memory
            .as_ref()
            .map_or(0, |m| u64::from(m.limits.min) * PAGE_SIZE as u64),
    };
    // The plan is consulted by the optimizing tiers only (mirrors
    // `mem_operand`).
    let func_plan = if opt == OptLevel::None {
        None
    } else {
        plan.map(|p| &p.funcs[defined_idx])
    };
    // The extent table is a pure function of the module: recompute it
    // rather than trust the one codegen was handed. Any emitted check may
    // take the fused form, so the table is always supplied under trap.
    let limit_extents =
        (strategy == BoundsStrategy::Trap).then(|| crate::dataflow::module_extents(module));
    let report = verify_function(&FuncInput {
        func_index: defined_idx,
        code,
        body: &module.functions[defined_idx].body,
        meta: &meta.funcs[defined_idx],
        strategy,
        plan: func_plan,
        mem_min_bytes,
        reserve_bytes: lb_core::DEFAULT_RESERVE_BYTES as u64,
        limit_extents,
    });
    let c = counters();
    c.sites.add(report.sites_checked);
    c.guarded.add(report.proven_guarded);
    c.elided.add(report.proven_elided);
    c.hoisted.add(report.proven_hoisted);
    c.fused.add(report.proven_fused);
    c.findings.add(report.findings.len() as u64);
    if !report.findings.is_empty() {
        for f in &report.findings {
            eprintln!("lb-verify [{strategy:?}/{opt:?}]: {f}");
        }
        if mode() == VerifyMode::Strict {
            panic!(
                "LB_VERIFY=strict: {} finding(s) in defined function {defined_idx} \
                 ({strategy:?}, {opt:?})",
                report.findings.len()
            );
        }
    }
    report
}
