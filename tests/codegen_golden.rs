//! Golden machine code for `OptLevel::None`, the V8-baseline arm of
//! Fig. 2a: every defined function of the 111 workload modules that
//! `analysis_plan_golden` covers (PolyBench at Mini/Small/Medium, the
//! SPEC proxies at Mini/Small/Train) is compiled at `None` under each of
//! the five bounds strategies, and one FNV-1a digest per
//! (module, strategy) is compared with `tests/golden/codegen_none.tsv`.
//!
//! Instruction selection at `Basic` and `Full` may change freely; the
//! baseline tier must not. Any byte of drift in `None` code fails here
//! with the module and strategy named.
//!
//! Helper-call targets are absolute addresses of runtime functions and
//! move with every build (and with ASLR), so the digest is taken over the
//! code re-encoded by `lb-verify` with each `mov r, imm; call r` target
//! zeroed. Everything else is hashed exactly as emitted.
//!
//! Regenerate after an *intended* change to baseline code with
//! `cargo test --release --test codegen_golden -- --ignored regenerate`.

mod common;

use common::{fnv1a, workload_modules, FNV_OFFSET};
use lb_core::BoundsStrategy;
use lb_jit::codegen::{compile_function, CompileParams, OptLevel};
use lb_verify::decode::decode_all;
use lb_verify::isa::{encode, Inst};
use lb_wasm::Module;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/codegen_none.tsv");

const HEADER: &str = "# module\tstrategy\tdigest\tcode_bytes";

const STRATEGIES: [(&str, BoundsStrategy); 5] = [
    ("none", BoundsStrategy::None),
    ("clamp", BoundsStrategy::Clamp),
    ("trap", BoundsStrategy::Trap),
    ("mprotect", BoundsStrategy::Mprotect),
    ("uffd", BoundsStrategy::Uffd),
];

/// `code` re-encoded with every helper-call target (`mov r, imm` right
/// before `call r`) replaced by zero.
fn normalized(code: &[u8]) -> Vec<u8> {
    let insts = decode_all(code).expect("baseline code decodes");
    let mut out = Vec::with_capacity(code.len());
    for (i, (_, inst)) in insts.iter().enumerate() {
        let callee = match insts.get(i + 1) {
            Some((_, Inst::CallR { r })) => Some(*r),
            _ => None,
        };
        let inst = match *inst {
            Inst::MovAbs { d, .. } | Inst::MovRi32 { d, .. } | Inst::MovRi64Sx { d, .. }
                if Some(d) == callee =>
            {
                Inst::MovAbs { d, v: 0 }
            }
            other => other,
        };
        encode(&inst, &mut out);
    }
    out
}

/// One golden line per strategy for `module`.
fn golden_lines(label: &str, module: &Module) -> Vec<String> {
    let meta = lb_wasm::validate(module).expect("workload validates");
    let extents = lb_jit::dataflow::module_extents(module);
    STRATEGIES
        .iter()
        .map(|&(tag, strategy)| {
            // The V8 profile's settings; `None` consults neither the plan
            // nor guard fusion.
            let params = CompileParams {
                module,
                metas: &meta.funcs,
                strategy,
                opt: OptLevel::None,
                safepoints: true,
                funcptrs_base: 0,
                plans: None,
                guardopt: true,
                limit_extents: &extents,
            };
            let mut digest = FNV_OFFSET;
            let mut bytes = 0;
            for di in 0..module.functions.len() {
                let code = compile_function(params, di);
                bytes += code.len();
                digest = fnv1a(digest, &normalized(&code));
            }
            format!("{label}\t{tag}\t{digest:016x}\t{bytes}")
        })
        .collect()
}

fn current_lines() -> Vec<String> {
    workload_modules()
        .iter()
        .flat_map(|(label, m)| golden_lines(label, m))
        .collect()
}

#[test]
fn none_code_matches_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let got = current_lines();
    assert_eq!(got.len(), 111 * STRATEGIES.len(), "module set changed");
    let drift: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        drift.is_empty() && got.len() == want.len(),
        "{} of {} baseline compiles drifted from {GOLDEN} (golden has {} lines):\n{}",
        drift.len(),
        got.len(),
        want.len(),
        drift.join("\n")
    );
}

/// Rewrites the golden file from the current code generator.
#[test]
#[ignore = "regenerates tests/golden/codegen_none.tsv"]
fn regenerate() {
    let mut out = String::from(HEADER);
    out.push('\n');
    for l in current_lines() {
        out.push_str(&l);
        out.push('\n');
    }
    std::fs::write(GOLDEN, out).expect("write golden");
}
