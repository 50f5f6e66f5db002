//! Medley PolyBench kernels: deriche, floyd-warshall, nussinov.

use crate::common::{
    assemble, checksum_fn, checksum_fn_i32, checksum_slices, checksum_slices_i32, init_val,
    init_val_expr, ClosureKernel, Dataset,
};
use lb_dsl::expr::{f64 as cf, i32 as ci};
use lb_dsl::{Benchmark, DslFunc, Layout};
use lb_wasm::types::ValType;

/// `deriche`: recursive Gaussian (Deriche) edge filter over a W×H image.
///
/// The filter's exponential coefficients are computed at module-build time
/// (wasm has no `exp`), exactly as a C compiler constant-folds them.
pub fn deriche(d: Dataset) -> Benchmark {
    let w = d.pick(32, 192, 720) as i32;
    let h = d.pick(24, 128, 480) as i32;
    let alpha = 0.25f64;

    // Deriche coefficients (PolyBench 4.2 formulas).
    let k = (1.0 - (-alpha).exp()) * (1.0 - (-alpha).exp())
        / (1.0 + 2.0 * alpha * (-alpha).exp() - (2.0 * alpha).exp());
    let a1 = k;
    let a5 = k;
    let a2 = k * (-alpha).exp() * (alpha - 1.0);
    let a6 = a2;
    let a3 = k * (-alpha).exp() * (alpha + 1.0);
    let a7 = a3;
    let a4 = -k * (-2.0 * alpha).exp();
    let a8 = a4;
    let b1 = 2.0f64.powf(-alpha);
    let b2 = -(-2.0 * alpha).exp();
    let c1 = 1.0f64;
    let c2 = 1.0f64;

    let mut l = Layout::new();
    let img_in = l.array2_f64(w as u32, h as u32);
    let img_out = l.array2_f64(w as u32, h as u32);
    let y1 = l.array2_f64(w as u32, h as u32);
    let y2 = l.array2_f64(w as u32, h as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(w), |f| {
            f.for_i32(j, ci(0), ci(h), |f| {
                img_in.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 313, j.get(), 991, 65536),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let ym1 = fk.local_f64();
        let ym2 = fk.local_f64();
        let xm1 = fk.local_f64();
        let yp1 = fk.local_f64();
        let yp2 = fk.local_f64();
        let xp1 = fk.local_f64();
        let xp2 = fk.local_f64();
        let tm1 = fk.local_f64();
        let tp1 = fk.local_f64();
        let tp2 = fk.local_f64();

        // Horizontal forward pass.
        fk.for_i32(i, ci(0), ci(w), |f| {
            f.assign(ym1, cf(0.0));
            f.assign(ym2, cf(0.0));
            f.assign(xm1, cf(0.0));
            f.for_i32(j, ci(0), ci(h), |f| {
                y1.set(
                    f,
                    i.get(),
                    j.get(),
                    cf(a1) * img_in.at(i.get(), j.get())
                        + cf(a2) * xm1.get()
                        + cf(b1) * ym1.get()
                        + cf(b2) * ym2.get(),
                );
                f.assign(xm1, img_in.at(i.get(), j.get()));
                f.assign(ym2, ym1.get());
                f.assign(ym1, y1.at(i.get(), j.get()));
            });
        });
        // Horizontal backward pass.
        fk.for_i32(i, ci(0), ci(w), |f| {
            f.assign(yp1, cf(0.0));
            f.assign(yp2, cf(0.0));
            f.assign(xp1, cf(0.0));
            f.assign(xp2, cf(0.0));
            f.for_i32_down(j, ci(h), ci(0), |f| {
                y2.set(
                    f,
                    i.get(),
                    j.get(),
                    cf(a3) * xp1.get()
                        + cf(a4) * xp2.get()
                        + cf(b1) * yp1.get()
                        + cf(b2) * yp2.get(),
                );
                f.assign(xp2, xp1.get());
                f.assign(xp1, img_in.at(i.get(), j.get()));
                f.assign(yp2, yp1.get());
                f.assign(yp1, y2.at(i.get(), j.get()));
            });
        });
        fk.for_i32(i, ci(0), ci(w), |f| {
            f.for_i32(j, ci(0), ci(h), |f| {
                img_out.set(
                    f,
                    i.get(),
                    j.get(),
                    cf(c1) * (y1.at(i.get(), j.get()) + y2.at(i.get(), j.get())),
                );
            });
        });
        // Vertical forward pass.
        fk.for_i32(j, ci(0), ci(h), |f| {
            f.assign(tm1, cf(0.0));
            f.assign(ym1, cf(0.0));
            f.assign(ym2, cf(0.0));
            f.for_i32(i, ci(0), ci(w), |f| {
                y1.set(
                    f,
                    i.get(),
                    j.get(),
                    cf(a5) * img_out.at(i.get(), j.get())
                        + cf(a6) * tm1.get()
                        + cf(b1) * ym1.get()
                        + cf(b2) * ym2.get(),
                );
                f.assign(tm1, img_out.at(i.get(), j.get()));
                f.assign(ym2, ym1.get());
                f.assign(ym1, y1.at(i.get(), j.get()));
            });
        });
        // Vertical backward pass.
        fk.for_i32(j, ci(0), ci(h), |f| {
            f.assign(tp1, cf(0.0));
            f.assign(tp2, cf(0.0));
            f.assign(yp1, cf(0.0));
            f.assign(yp2, cf(0.0));
            f.for_i32_down(i, ci(w), ci(0), |f| {
                y2.set(
                    f,
                    i.get(),
                    j.get(),
                    cf(a7) * tp1.get()
                        + cf(a8) * tp2.get()
                        + cf(b1) * yp1.get()
                        + cf(b2) * yp2.get(),
                );
                f.assign(tp2, tp1.get());
                f.assign(tp1, img_out.at(i.get(), j.get()));
                f.assign(yp2, yp1.get());
                f.assign(yp1, y2.at(i.get(), j.get()));
            });
        });
        fk.for_i32(i, ci(0), ci(w), |f| {
            f.for_i32(j, ci(0), ci(h), |f| {
                img_out.set(
                    f,
                    i.get(),
                    j.get(),
                    cf(c2) * (y1.at(i.get(), j.get()) + y2.at(i.get(), j.get())),
                );
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[img_out.flat()]));

    struct St {
        w: usize,
        h: usize,
        coef: [f64; 12],
        img_in: Vec<f64>,
        img_out: Vec<f64>,
        y1: Vec<f64>,
        y2: Vec<f64>,
    }
    let (w_, h_) = (w as usize, h as usize);
    let coef = [a1, a2, a3, a4, a5, a6, a7, a8, b1, b2, c1, c2];
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                w: w_,
                h: h_,
                coef,
                img_in: vec![0.0; w_ * h_],
                img_out: vec![0.0; w_ * h_],
                y1: vec![0.0; w_ * h_],
                y2: vec![0.0; w_ * h_],
            },
            init: |s: &mut St| {
                for i in 0..s.w {
                    for j in 0..s.h {
                        s.img_in[i * s.h + j] = init_val(i as i64, 313, j as i64, 991, 65536);
                    }
                }
            },
            kernel: |s: &mut St| {
                let (w, h) = (s.w, s.h);
                let [a1, a2, a3, a4, a5, a6, a7, a8, b1, b2, c1, c2] = s.coef;
                for i in 0..w {
                    let (mut ym1, mut ym2, mut xm1) = (0.0f64, 0.0f64, 0.0f64);
                    for j in 0..h {
                        s.y1[i * h + j] = a1 * s.img_in[i * h + j] + a2 * xm1 + b1 * ym1 + b2 * ym2;
                        xm1 = s.img_in[i * h + j];
                        ym2 = ym1;
                        ym1 = s.y1[i * h + j];
                    }
                }
                for i in 0..w {
                    let (mut yp1, mut yp2, mut xp1, mut xp2) = (0.0, 0.0, 0.0, 0.0);
                    for j in (0..h).rev() {
                        s.y2[i * h + j] = a3 * xp1 + a4 * xp2 + b1 * yp1 + b2 * yp2;
                        xp2 = xp1;
                        xp1 = s.img_in[i * h + j];
                        yp2 = yp1;
                        yp1 = s.y2[i * h + j];
                    }
                }
                for i in 0..w {
                    for j in 0..h {
                        s.img_out[i * h + j] = c1 * (s.y1[i * h + j] + s.y2[i * h + j]);
                    }
                }
                for j in 0..h {
                    let (mut tm1, mut ym1, mut ym2) = (0.0f64, 0.0f64, 0.0f64);
                    for i in 0..w {
                        s.y1[i * h + j] =
                            a5 * s.img_out[i * h + j] + a6 * tm1 + b1 * ym1 + b2 * ym2;
                        tm1 = s.img_out[i * h + j];
                        ym2 = ym1;
                        ym1 = s.y1[i * h + j];
                    }
                }
                for j in 0..h {
                    let (mut tp1, mut tp2, mut yp1, mut yp2) = (0.0, 0.0, 0.0, 0.0);
                    for i in (0..w).rev() {
                        s.y2[i * h + j] = a7 * tp1 + a8 * tp2 + b1 * yp1 + b2 * yp2;
                        tp2 = tp1;
                        tp1 = s.img_out[i * h + j];
                        yp2 = yp1;
                        yp1 = s.y2[i * h + j];
                    }
                }
                for i in 0..w {
                    for j in 0..h {
                        s.img_out[i * h + j] = c2 * (s.y1[i * h + j] + s.y2[i * h + j]);
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.img_out]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("deriche", "polybench", module, native)
}

/// `floyd-warshall`: all-pairs shortest paths.
pub fn floyd_warshall(d: Dataset) -> Benchmark {
    let n = d.pick(16, 90, 320) as i32;

    let mut l = Layout::new();
    let path = l.array2(ValType::I32, n as u32, n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                // path[i][j] = i*j % 7 + 1; disconnected-ish if (i+j)%13 == 0.
                let base = (i.get() * j.get()).rem_s(ci(7)) + ci(1);
                let cond = (i.get() + j.get())
                    .rem_s(ci(13))
                    .eqz()
                    .or(i.get().rem_s(ci(7)).eqz())
                    .or(j.get().rem_s(ci(11)).eqz());
                path.set(f, i.get(), j.get(), ci(999).select(base, cond));
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        fk.for_i32(k, ci(0), ci(n), |f| {
            f.for_i32(i, ci(0), ci(n), |f| {
                f.for_i32(j, ci(0), ci(n), |f| {
                    let direct = path.at(i.get(), j.get());
                    let via = path.at(i.get(), k.get()) + path.at(k.get(), j.get());
                    let cond = direct.clone().lt(via.clone());
                    path.set(f, i.get(), j.get(), direct.select(via, cond));
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn_i32(&[path.flat()]));

    struct St {
        n: usize,
        path: Vec<i32>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                path: vec![0; n_ * n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    for j in 0..s.n {
                        let base = ((i as i32).wrapping_mul(j as i32)) % 7 + 1;
                        let cond = (i + j) % 13 == 0 || i % 7 == 0 || j % 11 == 0;
                        s.path[i * s.n + j] = if cond { 999 } else { base };
                    }
                }
            },
            kernel: |s: &mut St| {
                let n = s.n;
                for k in 0..n {
                    for i in 0..n {
                        for j in 0..n {
                            let direct = s.path[i * n + j];
                            let via = s.path[i * n + k] + s.path[k * n + j];
                            s.path[i * n + j] = if direct < via { direct } else { via };
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices_i32(&[&s.path]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("floyd-warshall", "polybench", module, native)
}

/// `nussinov`: RNA secondary-structure dynamic program.
pub fn nussinov(d: Dataset) -> Benchmark {
    let n = d.pick(16, 80, 180) as i32;

    let mut l = Layout::new();
    let seq = l.array(ValType::I32, n as u32);
    let table = l.array2(ValType::I32, n as u32, n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            seq.set(f, i.get(), (i.get() + ci(1)).rem_s(ci(4)));
        });
        fi.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                table.set(f, i.get(), j.get(), ci(0));
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        // for i from n-1 down to 0; for j in i+1..n
        fk.for_i32_down(i, ci(n), ci(0), |f| {
            f.for_i32_step(j, i.get() + ci(1), ci(n), 1, |f| {
                // max with table[i][j-1]
                let a = table.at(i.get(), j.get());
                let b = table.at(i.get(), j.get() - ci(1));
                let cond = a.clone().lt(b.clone());
                table.set(f, i.get(), j.get(), b.select(a, cond));
                // max with table[i+1][j]
                let a = table.at(i.get(), j.get());
                let b = table.at(i.get() + ci(1), j.get());
                let cond = a.clone().lt(b.clone());
                table.set(f, i.get(), j.get(), b.select(a, cond));
                // pairing term: i+1 <= j-1 guard
                f.if_else(
                    (i.get() + ci(1)).le(j.get() - ci(1)),
                    |f| {
                        // the comparison itself yields 0/1 as i32
                        let matched = (seq.at(i.get()) + seq.at(j.get())).eq(ci(3));
                        let a = table.at(i.get(), j.get());
                        let b = table.at(i.get() + ci(1), j.get() - ci(1)) + matched;
                        let cond = a.clone().lt(b.clone());
                        table.set(f, i.get(), j.get(), b.select(a, cond));
                    },
                    |_| {},
                );
                // split maximization
                f.for_i32_step(k, i.get() + ci(1), j.get(), 1, |f| {
                    let a = table.at(i.get(), j.get());
                    let b = table.at(i.get(), k.get()) + table.at(k.get() + ci(1), j.get());
                    let cond = a.clone().lt(b.clone());
                    table.set(f, i.get(), j.get(), b.select(a, cond));
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn_i32(&[table.flat()]));

    struct St {
        n: usize,
        seq: Vec<i32>,
        table: Vec<i32>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                seq: vec![0; n_],
                table: vec![0; n_ * n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    s.seq[i] = ((i + 1) % 4) as i32;
                }
                for v in s.table.iter_mut() {
                    *v = 0;
                }
            },
            kernel: |s: &mut St| {
                let n = s.n;
                for i in (0..n).rev() {
                    for j in i + 1..n {
                        let mut t = s.table[i * n + j];
                        let b = s.table[i * n + j - 1];
                        t = if t < b { b } else { t };
                        let b = s.table[(i + 1) * n + j];
                        t = if t < b { b } else { t };
                        s.table[i * n + j] = t;
                        if i + 1 < j {
                            let matched = i32::from(s.seq[i] + s.seq[j] == 3);
                            let b = s.table[(i + 1) * n + j - 1] + matched;
                            let t0 = s.table[i * n + j];
                            s.table[i * n + j] = if t0 < b { b } else { t0 };
                        }
                        for k in i + 1..j {
                            let b = s.table[i * n + k] + s.table[(k + 1) * n + j];
                            let t0 = s.table[i * n + j];
                            s.table[i * n + j] = if t0 < b { b } else { t0 };
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices_i32(&[&s.table]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("nussinov", "polybench", module, native)
}
