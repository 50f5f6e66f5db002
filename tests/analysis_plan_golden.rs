//! Golden plans for `lb-analysis`: every check decision, clamp
//! licence and summary field the analysis produces on
//! the 111 workload modules (PolyBench at Mini/Small/Medium, the SPEC
//! proxies at Mini/Small/Train) is rendered canonically, digested, and
//! compared with `tests/golden/analysis_plans.tsv`.
//!
//! The loop fixpoint's iteration strategy is a pure cost concern: a
//! change to how headers are found must leave every plan byte-identical.
//! Any drift — an access losing its elision, a looser `max_proven_ea` —
//! fails here with the module named.
//!
//! Regenerate after an *intended* plan change with
//! `cargo test --release --test analysis_plan_golden -- --ignored regenerate`.
//!
//! The same modules, plus a synthetic depth-8 loop nest, also pin the
//! analysis's *cost*: its deterministic step count
//! ([`lb_analysis::FuncPlan::steps`]) must stay within [`STEP_BUDGET`]
//! steps per body instruction, a work bound that cannot flip on timing
//! noise and fails if nested fixpoints ever multiply per nesting level.

mod common;

use common::{fnv1a, workload_modules, FNV_OFFSET};
use lb_analysis::{analyze_module, CheckKind, ModulePlan};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{FuncType, Instr, Limits, MemArg, MemoryType, Module, ValType};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/analysis_plans.tsv"
);

const HEADER: &str = "# module\tdigest\telided\temitted\thoisted\tmax_proven_ea_sum";

fn kind_tag(k: CheckKind) -> &'static str {
    match k {
        CheckKind::Emit => "E",
        CheckKind::ElideInBounds => "I",
        CheckKind::ElideDominated => "D",
        CheckKind::StaticOob => "O",
    }
}

/// Canonical text of a whole plan: per function, every non-`Emit` kind,
/// every clamp-elidable pc, and every summary field. The empty `hoists=`
/// list and `hoi=0` are fixed text, kept from when the plan could version
/// loops, so the committed digests still apply.
fn render(module: &Module, plan: &ModulePlan) -> String {
    let mut s = String::new();
    writeln!(s, "mem {} {}", plan.mem_min_bytes, plan.mem_max_bytes).unwrap();
    for (di, (f, func)) in plan.funcs.iter().zip(&module.functions).enumerate() {
        let n = func.body.len();
        write!(s, "f{di} len={n} kinds=").unwrap();
        for pc in 0..n {
            let k = f.kind_at(pc);
            if k != CheckKind::Emit {
                write!(s, "{pc}:{},", kind_tag(k)).unwrap();
            }
        }
        write!(s, " clamp_ok=").unwrap();
        for pc in (0..n).filter(|&pc| f.clamp_elidable(pc)) {
            write!(s, "{pc},").unwrap();
        }
        let m = &f.summary;
        writeln!(
            s,
            " hoists= acc={} inb={} dom={} oob={} hoi=0 emit={} max_ea={:?} free={:?}",
            m.accesses,
            m.elided_in_bounds,
            m.elided_dominated,
            m.static_oob,
            m.emitted,
            m.max_proven_ea,
            m.check_free_min_bytes
        )
        .unwrap();
    }
    s
}

/// One golden line: label, digest, and readable totals (the fifth
/// column is a fixed 0, like `hoi=0` in [`render`]).
fn golden_line(label: &str, module: &Module) -> String {
    let meta = lb_wasm::validate(module).expect("workload validates");
    let plan = analyze_module(module, &meta);
    let (_, elided, emitted, _) = plan.totals();
    let ea_sum: u64 = plan
        .funcs
        .iter()
        .filter_map(|f| f.summary.max_proven_ea)
        .sum();
    format!(
        "{label}\t{:016x}\t{elided}\t{emitted}\t0\t{ea_sum}",
        fnv1a(FNV_OFFSET, render(module, &plan).as_bytes()),
    )
}

fn current_lines() -> Vec<String> {
    workload_modules()
        .iter()
        .map(|(label, m)| golden_line(label, m))
        .collect()
}

#[test]
fn plans_match_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let got = current_lines();
    assert_eq!(got.len(), 111, "module set changed");
    let drift: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        drift.is_empty() && got.len() == want.len(),
        "{} of {} plans drifted from {GOLDEN} (golden has {} lines):\n{}",
        drift.len(),
        got.len(),
        want.len(),
        drift.join("\n")
    );
}

/// Rewrites the golden file from the current analysis.
#[test]
#[ignore = "regenerates tests/golden/analysis_plans.tsv"]
fn regenerate() {
    let mut out = String::from(HEADER);
    out.push('\n');
    for l in current_lines() {
        out.push_str(&l);
        out.push('\n');
    }
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN, out).expect("write golden");
}

/// Abstract steps allowed per body instruction, per function.
const STEP_BUDGET: u64 = 1024;

/// `go(n)`: `depth` nested counted loops (`for i_k in 0..(k + 2)`, the
/// innermost bounded by `n` instead when `param_bound`), the innermost
/// storing `i_0` at `a[i_last]`. Every level's fixpoint sits inside
/// every enclosing level's probes.
fn counted_nest(depth: u32, param_bound: bool) -> Module {
    let mut body = Vec::new();
    for k in 0..depth {
        body.extend([
            Instr::I32Const(0),
            Instr::LocalSet(k + 1),
            Instr::Loop(lb_wasm::BlockType::Empty),
        ]);
    }
    body.extend([
        Instr::LocalGet(depth),
        Instr::I32Const(2),
        Instr::I32Shl,
        Instr::LocalGet(1),
        Instr::I32Store(MemArg::offset(0)),
    ]);
    for k in (0..depth).rev() {
        let bound = if param_bound && k == depth - 1 {
            Instr::LocalGet(0)
        } else {
            Instr::I32Const(k as i32 + 2)
        };
        body.extend([
            Instr::LocalGet(k + 1),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalTee(k + 1),
            bound,
            Instr::I32LtU,
            Instr::BrIf(0),
            Instr::End,
        ]);
    }
    body.extend([Instr::LocalGet(1), Instr::End]);
    let mut m = Module::new();
    m.types.push(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(1),
        },
    });
    m.functions.push(Function {
        type_idx: 0,
        locals: vec![ValType::I32; depth as usize],
        body,
        name: Some("go".into()),
    });
    m.exports.push(Export {
        name: "go".into(),
        kind: ExportKind::Func(0),
    });
    lb_wasm::validate(&m).expect("nest validates");
    m
}

/// Asserts every function of `module` stays within the step budget;
/// returns the module's steps per body instruction.
fn assert_within_budget(label: &str, module: &Module) -> u64 {
    let meta = lb_wasm::validate(module).expect("module validates");
    let plan = analyze_module(module, &meta);
    let mut total_len = 0;
    for (di, (f, func)) in plan.funcs.iter().zip(&module.functions).enumerate() {
        let len = func.body.len() as u64;
        assert!(
            f.steps() <= STEP_BUDGET * len,
            "{label} f{di}: {} abstract steps for {len} instructions \
             (budget {STEP_BUDGET} per instruction)",
            f.steps()
        );
        total_len += len;
    }
    plan.steps() / total_len
}

#[test]
fn workload_analysis_stays_within_step_budget() {
    let mut worst = (0, String::new());
    for (label, m) in workload_modules() {
        let w = assert_within_budget(&label, &m);
        if w > worst.0 {
            worst = (w, label);
        }
    }
    println!(
        "most steps per module instruction: {} ({})",
        worst.0, worst.1
    );
}

#[test]
fn deep_counted_nest_stays_within_step_budget() {
    for param_bound in [false, true] {
        let m = counted_nest(8, param_bound);
        let w = assert_within_budget(&format!("depth-8 nest (param bound {param_bound})"), &m);
        println!("depth-8 nest, param bound {param_bound}: {w} steps per instruction");
    }
}
