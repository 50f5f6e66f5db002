//! Decoder round-trip: every public `Asm` emitter, re-encoded bit-identical.
//!
//! Exercises the full instruction vocabulary of `crates/jit/src/asm.rs` —
//! including REX edge cases (r8–r15, sil/dil/spl/bpl), disp8/disp32
//! selection with rsp/rbp/r12/r13 bases, SIB index/scale combinations, and
//! xmm moves — then decodes the emitted bytes with `lb-verify` and asserts
//! that re-encoding reproduces the original byte stream exactly.

use lb_jit::asm::{Asm, Cc, Mem, Reg, Xmm, W};
use lb_verify::decode::decode_all;
use lb_verify::isa::encode;

const ALL_REGS: [Reg; 16] = [
    Reg::RAX,
    Reg::RCX,
    Reg::RDX,
    Reg::RBX,
    Reg::RSP,
    Reg::RBP,
    Reg::RSI,
    Reg::RDI,
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
    Reg::R12,
    Reg::R13,
    Reg::R14,
    Reg::R15,
];

const ALL_CC: [Cc; 16] = [
    Cc::O,
    Cc::No,
    Cc::B,
    Cc::Ae,
    Cc::E,
    Cc::Ne,
    Cc::Be,
    Cc::A,
    Cc::S,
    Cc::Ns,
    Cc::P,
    Cc::Np,
    Cc::L,
    Cc::Ge,
    Cc::Le,
    Cc::G,
];

/// Memory operands covering every ModRM/SIB/disp selection path: plain
/// bases (including the rsp/r12 SIB-forced and rbp/r13 disp-forced rows),
/// disp8 boundaries, disp32, and indexed forms at every scale.
fn mem_cases() -> Vec<Mem> {
    let mut v = Vec::new();
    for base in ALL_REGS {
        v.push(Mem::base(base, 0));
        v.push(Mem::base(base, 127));
        v.push(Mem::base(base, -128));
        v.push(Mem::base(base, 128));
        v.push(Mem::base(base, -129));
        v.push(Mem::base(base, 0x1234_5678));
    }
    for index in ALL_REGS {
        if index == Reg::RSP {
            continue; // rsp cannot be an index
        }
        for scale in [1u8, 2, 4, 8] {
            v.push(Mem {
                base: Reg::R14,
                index: Some((index, scale)),
                disp: 0x40,
            });
            v.push(Mem {
                base: Reg::RBP,
                index: Some((index, scale)),
                disp: 0,
            });
            v.push(Mem {
                base: Reg::RSP,
                index: Some((index, scale)),
                disp: -129,
            });
        }
    }
    v
}

fn roundtrip(what: &str, bytes: &[u8]) {
    let decoded = match decode_all(bytes) {
        Ok(d) => d,
        Err(e) => panic!("{what}: {e} (bytes: {bytes:02x?})"),
    };
    let mut re = Vec::new();
    for (_, inst) in &decoded {
        encode(inst, &mut re);
    }
    assert_eq!(
        re, bytes,
        "{what}: re-encoding differs\n decoded: {decoded:#x?}"
    );
}

fn check(what: &str, build: impl FnOnce(&mut Asm)) {
    let mut a = Asm::new();
    build(&mut a);
    roundtrip(what, &a.finish());
}

#[test]
fn moves_roundtrip() {
    check("mov_ri64 forms", |a| {
        for d in ALL_REGS {
            a.mov_ri64(d, 0);
            a.mov_ri64(d, 1);
            a.mov_ri64(d, u32::MAX as i64); // widest zero-extended form
            a.mov_ri64(d, -1); // sign-extended C7 form
            a.mov_ri64(d, i32::MIN as i64);
            a.mov_ri64(d, u32::MAX as i64 + 1); // smallest movabs
            a.mov_ri64(d, i64::MIN);
            a.mov_ri64(d, 0x1122_3344_5566_7788);
            a.mov_ri32(d, 0);
            a.mov_ri32(d, -1);
            a.mov_ri32(d, i32::MAX);
        }
    });
    check("mov_rr all pairs", |a| {
        for d in ALL_REGS {
            for s in ALL_REGS {
                a.mov_rr(W::W32, d, s);
                a.mov_rr(W::W64, d, s);
            }
        }
    });
    check("mov_rm/mov_mr/lea/cmp_rm over mem cases", |a| {
        for m in mem_cases() {
            a.mov_rm(W::W32, Reg::RAX, m);
            a.mov_rm(W::W64, Reg::R9, m);
            a.mov_mr(W::W32, m, Reg::RDI);
            a.mov_mr(W::W64, m, Reg::R15);
            a.lea(W::W32, Reg::RCX, m);
            a.lea(W::W64, Reg::R11, m);
            a.cmp_rm(W::W32, Reg::RDX, m);
            a.cmp_rm(W::W64, Reg::R8, m);
        }
    });
    check("narrow stores incl. forced-REX byte regs", |a| {
        let m = Mem::base(Reg::R14, 3);
        for s in ALL_REGS {
            a.mov_mr8(m, s); // spl/bpl/sil/dil need REX 0x40
            a.mov_mr16(m, s);
        }
        a.mov_mr8(Mem::base(Reg::RAX, 0), Reg::RCX); // no REX at all
    });
    check("widening loads", |a| {
        for m in [
            Mem::base(Reg::R14, 0),
            Mem::base(Reg::RBP, -8),
            Mem {
                base: Reg::R14,
                index: Some((Reg::R10, 4)),
                disp: 1000,
            },
        ] {
            for d in [Reg::RAX, Reg::R12] {
                a.movzx8(d, m);
                a.movzx16(d, m);
                for w in [W::W32, W::W64] {
                    a.movsx8(w, d, m);
                    a.movsx16(w, d, m);
                }
                a.movsxd_m(d, m);
            }
        }
        for d in ALL_REGS {
            for s in ALL_REGS {
                a.movsxd_r(d, s);
            }
        }
    });
}

#[test]
fn alu_roundtrip() {
    check("alu rr families", |a| {
        for d in ALL_REGS {
            for s in ALL_REGS {
                for w in [W::W32, W::W64] {
                    a.add_rr(w, d, s);
                    a.sub_rr(w, d, s);
                    a.and_rr(w, d, s);
                    a.or_rr(w, d, s);
                    a.xor_rr(w, d, s);
                    a.cmp_rr(w, d, s);
                    a.test_rr(w, d, s);
                    a.imul_rr(w, d, s);
                }
            }
        }
    });
    check("alu ri imm8/imm32 boundaries", |a| {
        for d in ALL_REGS {
            for w in [W::W32, W::W64] {
                for v in [0, 1, -1, 127, -128, 128, -129, i32::MAX, i32::MIN] {
                    a.add_ri(w, d, v);
                    a.sub_ri(w, d, v);
                    a.and_ri(w, d, v);
                    a.or_ri(w, d, v);
                    a.xor_ri(w, d, v);
                    a.cmp_ri(w, d, v);
                }
            }
        }
    });
    check("imul r, r, imm8/imm32 all pairs", |a| {
        for d in ALL_REGS {
            for s in ALL_REGS {
                for w in [W::W32, W::W64] {
                    for v in [0, 1, -1, 70, 127, -128, 128, -129, i32::MAX, i32::MIN] {
                        a.imul_rri(w, d, s, v);
                    }
                }
            }
        }
    });
    check("unary + division + shifts + bitcnt", |a| {
        for w in [W::W32, W::W64] {
            a.cdq_cqo(w);
            for r in ALL_REGS {
                a.neg(w, r);
                a.idiv(w, r);
                a.div(w, r);
                a.shl_cl(w, r);
                a.shr_cl(w, r);
                a.sar_cl(w, r);
                a.rol_cl(w, r);
                a.ror_cl(w, r);
                a.shl_i(w, r, 1);
                a.shl_i(w, r, 63);
                a.shr_i(w, r, 31);
                for k in [1, 31, 63] {
                    a.sar_i(w, r, k);
                    a.rol_i(w, r, k);
                    a.ror_i(w, r, k);
                }
                for s in [Reg::RAX, Reg::R13] {
                    a.popcnt(w, r, s);
                    a.lzcnt(w, r, s);
                    a.tzcnt(w, r, s);
                }
            }
        }
    });
    check("setcc/cmov all conditions", |a| {
        for cc in ALL_CC {
            for d in ALL_REGS {
                a.setcc(cc, d); // d.low() >= 4 forces REX
                a.cmov(W::W32, cc, d, Reg::R9);
                a.cmov(W::W64, cc, Reg::RSI, d);
            }
        }
    });
}

#[test]
fn control_flow_roundtrip() {
    check("branches forward and backward", |a| {
        let top = a.label();
        let out = a.label();
        a.bind(top);
        a.cmp_ri(W::W32, Reg::RAX, 10);
        for cc in ALL_CC {
            a.jcc(cc, out);
        }
        a.jmp(top);
        a.bind(out);
        a.ret();
    });
    check("calls, stack ops, traps, padding", |a| {
        for r in ALL_REGS {
            a.call_r(r);
            a.push(r);
            a.pop(r);
        }
        a.call_m(Mem::base(Reg::R15, 24));
        a.call_m(Mem::base(Reg::RSP, 0));
        a.ud2_trap(0);
        a.ud2_trap(255);
        a.nop();
        a.ret();
    });
}

#[test]
fn sse_roundtrip() {
    let xmms: Vec<Xmm> = (0..16).map(Xmm).collect();
    check("float load/store over mem cases", |a| {
        for m in mem_cases() {
            for &x in &[Xmm(0), Xmm(7), Xmm(8), Xmm(15)] {
                for double in [false, true] {
                    a.fload(double, x, m);
                    a.fstore(double, m, x);
                }
            }
        }
    });
    check("xmm register forms", |a| {
        for &d in &xmms {
            for &s in &xmms {
                a.fmov(d, s);
                for double in [false, true] {
                    for op in [0x58, 0x5C, 0x59, 0x5E, 0x51] {
                        a.farith(double, op, d, s);
                    }
                    a.ucomis(double, d, s);
                }
                a.cvt_d2s(d, s);
                a.cvt_s2d(d, s);
                for mode in [0, 1, 2, 3] {
                    a.rounds(true, d, s, mode);
                    a.rounds(false, d, s, mode);
                }
                a.pxor(d, s);
                for op in [0x54, 0x55, 0x56, 0x57] {
                    a.fbit(op, d, s);
                }
            }
        }
    });
    check("int/float transfers", |a| {
        for &x in &xmms {
            for r in ALL_REGS {
                for w in [W::W32, W::W64] {
                    for double in [false, true] {
                        a.cvtt_f2i(double, w, r, x);
                        a.cvt_i2f(double, w, x, r);
                    }
                    a.movq_xr(w, x, r);
                    a.movq_rx(w, r, x);
                }
            }
        }
    });
}

#[test]
fn decoded_stream_is_dense() {
    // decode_all must consume every byte with no gaps or overlaps.
    let mut a = Asm::new();
    a.push(Reg::RBP);
    a.mov_rr(W::W64, Reg::RBP, Reg::RSP);
    a.mov_rm(W::W64, Reg::R14, Mem::base(Reg::R15, 0));
    a.movzx8(Reg::RAX, Mem::base(Reg::R14, 0x1000));
    a.pop(Reg::RBP);
    a.ret();
    let bytes = a.finish();
    let decoded = decode_all(&bytes).unwrap();
    let mut pos = 0;
    for (off, inst) in &decoded {
        assert_eq!(*off, pos, "gap before {inst:?}");
        let mut one = Vec::new();
        encode(inst, &mut one);
        pos += one.len();
    }
    assert_eq!(pos, bytes.len());
}
