//! `557.xz_r` proxy — LZ77 match finding with hash chains over synthetic
//! semi-compressible data (xz/LZMA spends most of its time in exactly this
//! byte-wise match search), plus a checksum over emitted match tokens.

use crate::common::{
    assemble, checksum_fn_i32, checksum_slices_i32, lcg_next, lcg_step, ClosureKernel, Scale,
};
use lb_dsl::expr::i32 as ci;
use lb_dsl::{Benchmark, DslFunc, Expr, Layout};
use lb_wasm::instr::{Instr, MemArg};
use lb_wasm::types::ValType;

const HASH_BITS: i32 = 12;
const HASH_SIZE: i32 = 1 << HASH_BITS;
const MAX_CHAIN: i32 = 16;
const MIN_MATCH: i32 = 3;
const MAX_MATCH: i32 = 64;

/// Build the `xz` proxy benchmark.
pub fn xz(s: Scale) -> Benchmark {
    let n = s.pick(2_000, 40_000, 200_000) as i32; // input bytes

    let mut l = Layout::new();
    let data_words = ((n + 3) / 4) as u32;
    let data = l.array(ValType::I32, data_words); // byte storage
    let head = l.array_i32(HASH_SIZE as u32);
    let prev = l.array_i32(n as u32);
    let out_len = l.array_i32((n / MIN_MATCH + 1) as u32);

    let load8 = |idx: Expr| -> Expr {
        let mut code = idx.into_code();
        code.push(Instr::I32Load8U(MemArg::offset(data.base())));
        Expr::from_raw(code, ValType::I32)
    };
    let store8 = |f: &mut DslFunc, idx: Expr, val: Expr| {
        let mut code = idx.into_code();
        code.extend(val.into_code());
        code.push(Instr::I32Store8(MemArg::offset(data.base())));
        f.stmt(code);
    };

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let rng = fi.local_i32();
        fi.assign(rng, ci(31337));
        // Semi-compressible: low-entropy bytes with repeated phrases.
        fi.for_i32(i, ci(0), ci(n), |f| {
            lcg_step(f, rng);
            // byte = (rng >>> 10) % 19 + 'a'
            store8(f, i.get(), rng.get().shr_u(ci(10)).rem_u(ci(19)) + ci(97));
        });
        // Copy a phrase every 256 bytes to create long matches.
        fi.for_i32(i, ci(512), ci(n - 64), |f| {
            f.if_then(i.get().rem_s(ci(256)).eqz(), |f| {
                let j = f.local_i32();
                f.for_i32(j, ci(0), ci(48), |f| {
                    store8(f, i.get() + j.get(), load8(i.get() + j.get() - ci(509)));
                });
            });
        });
        fi.for_i32(i, ci(0), ci(HASH_SIZE), |f| {
            head.set(f, i.get(), ci(-1));
        });
        fi.for_i32(i, ci(0), ci(n), |f| {
            prev.set(f, i.get(), ci(-1));
        });
        fi.for_i32(i, ci(0), ci(n / MIN_MATCH + 1), |f| {
            out_len.set(f, i.get(), ci(0));
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let pos = fk.local_i32();
        let hash = fk.local_i32();
        let cand = fk.local_i32();
        let chain = fk.local_i32();
        let best = fk.local_i32();
        let len = fk.local_i32();
        let tokens = fk.local_i32();
        fk.assign(tokens, ci(0));
        fk.assign(pos, ci(0));
        fk.while_loop(
            || pos.get().lt(ci(n - MAX_MATCH)),
            |f| {
                // hash of 3 bytes
                f.assign(
                    hash,
                    (load8(pos.get())
                        .xor(load8(pos.get() + ci(1)) << ci(4))
                        .xor(load8(pos.get() + ci(2)) << ci(8)))
                    .and(ci(HASH_SIZE - 1)),
                );
                f.assign(best, ci(0));
                f.assign(cand, head.at(hash.get()));
                f.assign(chain, ci(0));
                f.while_loop(
                    || cand.get().ge(ci(0)).and(chain.get().lt(ci(MAX_CHAIN))),
                    |f| {
                        // match length at cand vs pos
                        f.assign(len, ci(0));
                        f.while_loop(
                            || {
                                len.get().lt(ci(MAX_MATCH)).and(
                                    load8(cand.get() + len.get()).eq(load8(pos.get() + len.get())),
                                )
                            },
                            |f| {
                                f.assign(len, len.get() + ci(1));
                            },
                        );
                        f.if_then(len.get().gt(best.get()), |f| {
                            f.assign(best, len.get());
                        });
                        f.assign(cand, prev.at(cand.get()));
                        f.assign(chain, chain.get() + ci(1));
                    },
                );
                // Insert pos into the chain.
                prev.set(f, pos.get(), head.at(hash.get()));
                head.set(f, hash.get(), pos.get());
                // Emit token and advance.
                f.if_else(
                    best.get().ge(ci(MIN_MATCH)),
                    |f| {
                        out_len.set(f, tokens.get(), best.get());
                        f.assign(tokens, tokens.get() + ci(1));
                        f.assign(pos, pos.get() + best.get());
                    },
                    |f| {
                        f.assign(pos, pos.get() + ci(1));
                    },
                );
            },
        );
    }

    let module = assemble(&l, fi, fk, checksum_fn_i32(&[out_len]));

    struct St {
        n: usize,
        data: Vec<u8>,
        head: Vec<i32>,
        prev: Vec<i32>,
        out_len: Vec<i32>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                data: vec![0; n_],
                head: vec![-1; HASH_SIZE as usize],
                prev: vec![-1; n_],
                out_len: vec![0; n_ / MIN_MATCH as usize + 1],
            },
            init: |s: &mut St| {
                let mut rng = 31337u32;
                for i in 0..s.n {
                    rng = lcg_next(rng);
                    s.data[i] = (((rng >> 10) % 19) + 97) as u8;
                }
                let mut i = 512;
                while i < s.n - 64 {
                    if i % 256 == 0 {
                        for j in 0..48 {
                            s.data[i + j] = s.data[i + j - 509];
                        }
                    }
                    i += 1;
                }
                for h in s.head.iter_mut() {
                    *h = -1;
                }
                for p in s.prev.iter_mut() {
                    *p = -1;
                }
                for o in s.out_len.iter_mut() {
                    *o = 0;
                }
            },
            kernel: |s: &mut St| {
                let n = s.n as i32;
                let mut tokens = 0usize;
                let mut pos = 0i32;
                while pos < n - MAX_MATCH {
                    let b = |i: i32| s.data[i as usize] as i32;
                    let hash = ((b(pos) ^ (b(pos + 1) << 4) ^ (b(pos + 2) << 8)) & (HASH_SIZE - 1))
                        as usize;
                    let mut best = 0i32;
                    let mut cand = s.head[hash];
                    let mut chain = 0;
                    while cand >= 0 && chain < MAX_CHAIN {
                        let mut len = 0i32;
                        while len < MAX_MATCH && b(cand + len) == b(pos + len) {
                            len += 1;
                        }
                        if len > best {
                            best = len;
                        }
                        cand = s.prev[cand as usize];
                        chain += 1;
                    }
                    s.prev[pos as usize] = s.head[hash];
                    s.head[hash] = pos;
                    if best >= MIN_MATCH {
                        s.out_len[tokens] = best;
                        tokens += 1;
                        pos += best;
                    } else {
                        pos += 1;
                    }
                }
            },
            checksum: |s: &St| checksum_slices_i32(&[&s.out_len]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("xz", "spec", module, native)
}
