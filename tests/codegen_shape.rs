//! Instruction-selection shape of an optimized inner loop.
//!
//! gemm Small's `kernel` is compiled at `Full` under trap with the
//! analysis plan on (every check elided), decoded with `lb-verify`'s
//! decoder (not `lb-jit`'s assembler), and its innermost loop — the
//! backward branch nested deepest — is held to what a native
//! compiler emits for `C[i][j] += alpha * A[i][k] * B[k][j]`: at most 25
//! instructions, compares kept in flags (no `setcc`), and constant shifts
//! as immediates (no shift by `cl`).

use lb_core::BoundsStrategy;
use lb_jit::codegen::{compile_function, CompileParams, OptLevel};
use lb_polybench::Dataset;
use lb_verify::decode::decode_all;
use lb_verify::isa::Inst;
use lb_wasm::module::ExportKind;

/// The decoded instructions of the innermost loop of `code`: the
/// backward branch nested inside the most other loops (the shortest on a
/// tie), from its target through the branch itself.
fn innermost_loop(code: &[u8]) -> Vec<Inst> {
    let insts = decode_all(code).expect("emitted code decodes");
    // `(first, last)` instruction index of every loop.
    let mut loops = Vec::new();
    for (i, &(_, inst)) in insts.iter().enumerate() {
        let rel = match inst {
            Inst::Jcc { rel, .. } | Inst::Jmp { rel } if rel < 0 => rel,
            _ => continue,
        };
        let end = insts.get(i + 1).map_or(code.len(), |&(o, _)| o);
        let target = (end as i64 + i64::from(rel)) as usize;
        let first = insts
            .iter()
            .position(|&(o, _)| o == target)
            .expect("backedge lands on an instruction boundary");
        loops.push((first, i));
    }
    let depth = |&(s, e): &(usize, usize)| {
        loops
            .iter()
            .filter(|&&(os, oe)| os <= s && e <= oe && (os, oe) != (s, e))
            .count()
    };
    let &(s, e) = loops
        .iter()
        .max_by_key(|l| (depth(l), std::cmp::Reverse(l.1 - l.0)))
        .expect("kernel has a loop");
    insts[s..=e].iter().map(|&(_, inst)| inst).collect()
}

#[test]
fn gemm_inner_loop_is_native_sized() {
    let bench = lb_polybench::by_name("gemm", Dataset::Small).expect("gemm exists");
    let module = &bench.module;
    let meta = lb_wasm::validate(module).expect("gemm validates");
    let plan = lb_analysis::analyze_module(module, &meta);
    let extents = lb_jit::dataflow::module_extents(module);
    let kernel = module
        .exports
        .iter()
        .find_map(|e| match e.kind {
            ExportKind::Func(fi) if e.name == "kernel" => Some(fi),
            _ => None,
        })
        .expect("kernel export") as usize
        - module.num_imported_funcs() as usize;
    let params = CompileParams {
        module,
        metas: &meta.funcs,
        strategy: BoundsStrategy::Trap,
        opt: OptLevel::Full,
        safepoints: false,
        funcptrs_base: 0,
        plans: Some(&plan),
        guardopt: true,
        limit_extents: &extents,
    };
    let code = compile_function(params, kernel);
    let body = innermost_loop(&code);
    let listing = body
        .iter()
        .map(|i| format!("  {i:?}"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        body.len() <= 25,
        "gemm's inner loop is {} instructions (at most 25):\n{listing}",
        body.len()
    );
    assert!(
        !body
            .iter()
            .any(|i| matches!(i, Inst::Setcc { .. } | Inst::ShiftCl { .. })),
        "gemm's inner loop materializes a compare or shifts by cl:\n{listing}"
    );
}
