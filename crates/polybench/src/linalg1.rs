//! BLAS-style PolyBench kernels: gemm, 2mm, 3mm, mvt, atax, bicg,
//! gesummv, gemver, doitgen.

use crate::common::{
    assemble, checksum_fn, checksum_slices, init_val, init_val_expr, ClosureKernel, Dataset,
};
use lb_dsl::expr::{f64 as cf, i32 as ci};
use lb_dsl::{Benchmark, DslFunc, Layout};

const ALPHA: f64 = 1.5;
const BETA: f64 = 1.2;

/// `gemm`: C = alpha·A·B + beta·C.
pub fn gemm(d: Dataset) -> Benchmark {
    let ni = d.pick(8, 60, 200) as i32;
    let nj = d.pick(10, 70, 220) as i32;
    let nk = d.pick(12, 80, 240) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(ni as u32, nk as u32);
    let b = l.array2_f64(nk as u32, nj as u32);
    let c = l.array2_f64(ni as u32, nj as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nj), |f| {
                c.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 3, j.get(), 1, 100),
                );
            });
        });
        fi.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nk), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 5, j.get(), 2, 97),
                );
            });
        });
        fi.for_i32(i, ci(0), ci(nk), |f| {
            f.for_i32(j, ci(0), ci(nj), |f| {
                b.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 7, j.get(), 3, 89),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        fk.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nj), |f| {
                c.set(f, i.get(), j.get(), c.at(i.get(), j.get()) * cf(BETA));
            });
            f.for_i32(k, ci(0), ci(nk), |f| {
                f.for_i32(j, ci(0), ci(nj), |f| {
                    c.set(
                        f,
                        i.get(),
                        j.get(),
                        c.at(i.get(), j.get())
                            + cf(ALPHA) * a.at(i.get(), k.get()) * b.at(k.get(), j.get()),
                    );
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[c.flat()]));

    struct St {
        ni: usize,
        nj: usize,
        nk: usize,
        a: Vec<f64>,
        b: Vec<f64>,
        c: Vec<f64>,
    }
    let (ni_, nj_, nk_) = (ni as usize, nj as usize, nk as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                ni: ni_,
                nj: nj_,
                nk: nk_,
                a: vec![0.0; ni_ * nk_],
                b: vec![0.0; nk_ * nj_],
                c: vec![0.0; ni_ * nj_],
            },
            init: |s: &mut St| {
                for i in 0..s.ni {
                    for j in 0..s.nj {
                        s.c[i * s.nj + j] = init_val(i as i64, 3, j as i64, 1, 100);
                    }
                }
                for i in 0..s.ni {
                    for j in 0..s.nk {
                        s.a[i * s.nk + j] = init_val(i as i64, 5, j as i64, 2, 97);
                    }
                }
                for i in 0..s.nk {
                    for j in 0..s.nj {
                        s.b[i * s.nj + j] = init_val(i as i64, 7, j as i64, 3, 89);
                    }
                }
            },
            kernel: |s: &mut St| {
                for i in 0..s.ni {
                    for j in 0..s.nj {
                        s.c[i * s.nj + j] *= BETA;
                    }
                    for k in 0..s.nk {
                        for j in 0..s.nj {
                            s.c[i * s.nj + j] += ALPHA * s.a[i * s.nk + k] * s.b[k * s.nj + j];
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.c]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("gemm", "polybench", module, native)
}

/// `2mm`: D = alpha·A·B·C + beta·D.
pub fn two_mm(d: Dataset) -> Benchmark {
    let ni = d.pick(8, 40, 180) as i32;
    let nj = d.pick(9, 50, 190) as i32;
    let nk = d.pick(11, 70, 210) as i32;
    let nl = d.pick(12, 80, 220) as i32;

    let mut l = Layout::new();
    let tmp = l.array2_f64(ni as u32, nj as u32);
    let a = l.array2_f64(ni as u32, nk as u32);
    let b = l.array2_f64(nk as u32, nj as u32);
    let c = l.array2_f64(nj as u32, nl as u32);
    let dd = l.array2_f64(ni as u32, nl as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nk), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 3, j.get(), 0, 100),
                );
            });
        });
        fi.for_i32(i, ci(0), ci(nk), |f| {
            f.for_i32(j, ci(0), ci(nj), |f| {
                b.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 2, j.get(), 1, 99),
                );
            });
        });
        fi.for_i32(i, ci(0), ci(nj), |f| {
            f.for_i32(j, ci(0), ci(nl), |f| {
                c.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 4, j.get(), 2, 98),
                );
            });
        });
        fi.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nl), |f| {
                dd.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 5, j.get(), 3, 97),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        fk.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nj), |f| {
                tmp.set(f, i.get(), j.get(), cf(0.0));
                f.for_i32(k, ci(0), ci(nk), |f| {
                    tmp.set(
                        f,
                        i.get(),
                        j.get(),
                        tmp.at(i.get(), j.get())
                            + cf(ALPHA) * a.at(i.get(), k.get()) * b.at(k.get(), j.get()),
                    );
                });
            });
        });
        fk.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nl), |f| {
                dd.set(f, i.get(), j.get(), dd.at(i.get(), j.get()) * cf(BETA));
                f.for_i32(k, ci(0), ci(nj), |f| {
                    dd.set(
                        f,
                        i.get(),
                        j.get(),
                        dd.at(i.get(), j.get()) + tmp.at(i.get(), k.get()) * c.at(k.get(), j.get()),
                    );
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[dd.flat()]));

    struct St {
        ni: usize,
        nj: usize,
        nk: usize,
        nl: usize,
        tmp: Vec<f64>,
        a: Vec<f64>,
        b: Vec<f64>,
        c: Vec<f64>,
        d: Vec<f64>,
    }
    let (ni_, nj_, nk_, nl_) = (ni as usize, nj as usize, nk as usize, nl as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                ni: ni_,
                nj: nj_,
                nk: nk_,
                nl: nl_,
                tmp: vec![0.0; ni_ * nj_],
                a: vec![0.0; ni_ * nk_],
                b: vec![0.0; nk_ * nj_],
                c: vec![0.0; nj_ * nl_],
                d: vec![0.0; ni_ * nl_],
            },
            init: |s: &mut St| {
                for i in 0..s.ni {
                    for j in 0..s.nk {
                        s.a[i * s.nk + j] = init_val(i as i64, 3, j as i64, 0, 100);
                    }
                }
                for i in 0..s.nk {
                    for j in 0..s.nj {
                        s.b[i * s.nj + j] = init_val(i as i64, 2, j as i64, 1, 99);
                    }
                }
                for i in 0..s.nj {
                    for j in 0..s.nl {
                        s.c[i * s.nl + j] = init_val(i as i64, 4, j as i64, 2, 98);
                    }
                }
                for i in 0..s.ni {
                    for j in 0..s.nl {
                        s.d[i * s.nl + j] = init_val(i as i64, 5, j as i64, 3, 97);
                    }
                }
            },
            kernel: |s: &mut St| {
                for i in 0..s.ni {
                    for j in 0..s.nj {
                        s.tmp[i * s.nj + j] = 0.0;
                        for k in 0..s.nk {
                            s.tmp[i * s.nj + j] += ALPHA * s.a[i * s.nk + k] * s.b[k * s.nj + j];
                        }
                    }
                }
                for i in 0..s.ni {
                    for j in 0..s.nl {
                        s.d[i * s.nl + j] *= BETA;
                        for k in 0..s.nj {
                            s.d[i * s.nl + j] += s.tmp[i * s.nj + k] * s.c[k * s.nl + j];
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.d]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("2mm", "polybench", module, native)
}

/// `3mm`: G = (A·B)·(C·D).
pub fn three_mm(d: Dataset) -> Benchmark {
    let ni = d.pick(8, 40, 180) as i32;
    let nj = d.pick(9, 50, 190) as i32;
    let nk = d.pick(10, 60, 200) as i32;
    let nl = d.pick(11, 70, 210) as i32;
    let nm = d.pick(12, 80, 220) as i32;

    let mut l = Layout::new();
    let e = l.array2_f64(ni as u32, nj as u32);
    let a = l.array2_f64(ni as u32, nk as u32);
    let b = l.array2_f64(nk as u32, nj as u32);
    let ff = l.array2_f64(nj as u32, nl as u32);
    let c = l.array2_f64(nj as u32, nm as u32);
    let dd = l.array2_f64(nm as u32, nl as u32);
    let g = l.array2_f64(ni as u32, nl as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nk), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 3, j.get(), 1, 100),
                );
            });
        });
        fi.for_i32(i, ci(0), ci(nk), |f| {
            f.for_i32(j, ci(0), ci(nj), |f| {
                b.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 2, j.get(), 2, 99),
                );
            });
        });
        fi.for_i32(i, ci(0), ci(nj), |f| {
            f.for_i32(j, ci(0), ci(nm), |f| {
                c.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 4, j.get(), 3, 98),
                );
            });
        });
        fi.for_i32(i, ci(0), ci(nm), |f| {
            f.for_i32(j, ci(0), ci(nl), |f| {
                dd.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 5, j.get(), 4, 97),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        // E = A·B
        fk.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nj), |f| {
                e.set(f, i.get(), j.get(), cf(0.0));
                f.for_i32(k, ci(0), ci(nk), |f| {
                    e.set(
                        f,
                        i.get(),
                        j.get(),
                        e.at(i.get(), j.get()) + a.at(i.get(), k.get()) * b.at(k.get(), j.get()),
                    );
                });
            });
        });
        // F = C·D
        fk.for_i32(i, ci(0), ci(nj), |f| {
            f.for_i32(j, ci(0), ci(nl), |f| {
                ff.set(f, i.get(), j.get(), cf(0.0));
                f.for_i32(k, ci(0), ci(nm), |f| {
                    ff.set(
                        f,
                        i.get(),
                        j.get(),
                        ff.at(i.get(), j.get()) + c.at(i.get(), k.get()) * dd.at(k.get(), j.get()),
                    );
                });
            });
        });
        // G = E·F
        fk.for_i32(i, ci(0), ci(ni), |f| {
            f.for_i32(j, ci(0), ci(nl), |f| {
                g.set(f, i.get(), j.get(), cf(0.0));
                f.for_i32(k, ci(0), ci(nj), |f| {
                    g.set(
                        f,
                        i.get(),
                        j.get(),
                        g.at(i.get(), j.get()) + e.at(i.get(), k.get()) * ff.at(k.get(), j.get()),
                    );
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[g.flat()]));

    struct St {
        ni: usize,
        nj: usize,
        nk: usize,
        nl: usize,
        nm: usize,
        e: Vec<f64>,
        a: Vec<f64>,
        b: Vec<f64>,
        f: Vec<f64>,
        c: Vec<f64>,
        d: Vec<f64>,
        g: Vec<f64>,
    }
    let (ni_, nj_, nk_, nl_, nm_) = (
        ni as usize,
        nj as usize,
        nk as usize,
        nl as usize,
        nm as usize,
    );
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                ni: ni_,
                nj: nj_,
                nk: nk_,
                nl: nl_,
                nm: nm_,
                e: vec![0.0; ni_ * nj_],
                a: vec![0.0; ni_ * nk_],
                b: vec![0.0; nk_ * nj_],
                f: vec![0.0; nj_ * nl_],
                c: vec![0.0; nj_ * nm_],
                d: vec![0.0; nm_ * nl_],
                g: vec![0.0; ni_ * nl_],
            },
            init: |s: &mut St| {
                for i in 0..s.ni {
                    for j in 0..s.nk {
                        s.a[i * s.nk + j] = init_val(i as i64, 3, j as i64, 1, 100);
                    }
                }
                for i in 0..s.nk {
                    for j in 0..s.nj {
                        s.b[i * s.nj + j] = init_val(i as i64, 2, j as i64, 2, 99);
                    }
                }
                for i in 0..s.nj {
                    for j in 0..s.nm {
                        s.c[i * s.nm + j] = init_val(i as i64, 4, j as i64, 3, 98);
                    }
                }
                for i in 0..s.nm {
                    for j in 0..s.nl {
                        s.d[i * s.nl + j] = init_val(i as i64, 5, j as i64, 4, 97);
                    }
                }
            },
            kernel: |s: &mut St| {
                for i in 0..s.ni {
                    for j in 0..s.nj {
                        s.e[i * s.nj + j] = 0.0;
                        for k in 0..s.nk {
                            s.e[i * s.nj + j] += s.a[i * s.nk + k] * s.b[k * s.nj + j];
                        }
                    }
                }
                for i in 0..s.nj {
                    for j in 0..s.nl {
                        s.f[i * s.nl + j] = 0.0;
                        for k in 0..s.nm {
                            s.f[i * s.nl + j] += s.c[i * s.nm + k] * s.d[k * s.nl + j];
                        }
                    }
                }
                for i in 0..s.ni {
                    for j in 0..s.nl {
                        s.g[i * s.nl + j] = 0.0;
                        for k in 0..s.nj {
                            s.g[i * s.nl + j] += s.e[i * s.nj + k] * s.f[k * s.nl + j];
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.g]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("3mm", "polybench", module, native)
}

/// `mvt`: x1 += A·y1; x2 += Aᵀ·y2.
pub fn mvt(d: Dataset) -> Benchmark {
    let n = d.pick(16, 120, 400) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(n as u32, n as u32);
    let x1 = l.array_f64(n as u32);
    let x2 = l.array_f64(n as u32);
    let y1 = l.array_f64(n as u32);
    let y2 = l.array_f64(n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            x1.set(f, i.get(), init_val_expr(i.get(), 1, ci(0), 0, 100));
            x2.set(f, i.get(), init_val_expr(i.get(), 2, ci(0), 1, 99));
            y1.set(f, i.get(), init_val_expr(i.get(), 3, ci(0), 2, 98));
            y2.set(f, i.get(), init_val_expr(i.get(), 4, ci(0), 3, 97));
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 5, j.get(), 4, 96),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        fk.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                x1.set(
                    f,
                    i.get(),
                    x1.at(i.get()) + a.at(i.get(), j.get()) * y1.at(j.get()),
                );
            });
        });
        fk.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                x2.set(
                    f,
                    i.get(),
                    x2.at(i.get()) + a.at(j.get(), i.get()) * y2.at(j.get()),
                );
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[x1, x2]));

    struct St {
        n: usize,
        a: Vec<f64>,
        x1: Vec<f64>,
        x2: Vec<f64>,
        y1: Vec<f64>,
        y2: Vec<f64>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                a: vec![0.0; n_ * n_],
                x1: vec![0.0; n_],
                x2: vec![0.0; n_],
                y1: vec![0.0; n_],
                y2: vec![0.0; n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    s.x1[i] = init_val(i as i64, 1, 0, 0, 100);
                    s.x2[i] = init_val(i as i64, 2, 0, 1, 99);
                    s.y1[i] = init_val(i as i64, 3, 0, 2, 98);
                    s.y2[i] = init_val(i as i64, 4, 0, 3, 97);
                    for j in 0..s.n {
                        s.a[i * s.n + j] = init_val(i as i64, 5, j as i64, 4, 96);
                    }
                }
            },
            kernel: |s: &mut St| {
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.x1[i] += s.a[i * s.n + j] * s.y1[j];
                    }
                }
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.x2[i] += s.a[j * s.n + i] * s.y2[j];
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.x1, &s.x2]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("mvt", "polybench", module, native)
}

/// `atax`: y = Aᵀ·(A·x).
pub fn atax(d: Dataset) -> Benchmark {
    let m = d.pick(19, 116, 390) as i32;
    let n = d.pick(21, 124, 410) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(m as u32, n as u32);
    let x = l.array_f64(n as u32);
    let y = l.array_f64(n as u32);
    let tmp = l.array_f64(m as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            x.set(f, i.get(), init_val_expr(i.get(), 1, ci(0), 1, 101));
        });
        fi.for_i32(i, ci(0), ci(m), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 3, j.get(), 1, 100),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        fk.for_i32(i, ci(0), ci(n), |f| {
            y.set(f, i.get(), cf(0.0));
        });
        fk.for_i32(i, ci(0), ci(m), |f| {
            tmp.set(f, i.get(), cf(0.0));
            f.for_i32(j, ci(0), ci(n), |f| {
                tmp.set(
                    f,
                    i.get(),
                    tmp.at(i.get()) + a.at(i.get(), j.get()) * x.at(j.get()),
                );
            });
            f.for_i32(j, ci(0), ci(n), |f| {
                y.set(
                    f,
                    j.get(),
                    y.at(j.get()) + a.at(i.get(), j.get()) * tmp.at(i.get()),
                );
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[y]));

    struct St {
        m: usize,
        n: usize,
        a: Vec<f64>,
        x: Vec<f64>,
        y: Vec<f64>,
        tmp: Vec<f64>,
    }
    let (m_, n_) = (m as usize, n as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                m: m_,
                n: n_,
                a: vec![0.0; m_ * n_],
                x: vec![0.0; n_],
                y: vec![0.0; n_],
                tmp: vec![0.0; m_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    s.x[i] = init_val(i as i64, 1, 0, 1, 101);
                }
                for i in 0..s.m {
                    for j in 0..s.n {
                        s.a[i * s.n + j] = init_val(i as i64, 3, j as i64, 1, 100);
                    }
                }
            },
            kernel: |s: &mut St| {
                for i in 0..s.n {
                    s.y[i] = 0.0;
                }
                for i in 0..s.m {
                    s.tmp[i] = 0.0;
                    for j in 0..s.n {
                        s.tmp[i] += s.a[i * s.n + j] * s.x[j];
                    }
                    for j in 0..s.n {
                        s.y[j] += s.a[i * s.n + j] * s.tmp[i];
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.y]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("atax", "polybench", module, native)
}

/// `bicg`: s = Aᵀ·r; q = A·p.
pub fn bicg(d: Dataset) -> Benchmark {
    let m = d.pick(19, 116, 390) as i32;
    let n = d.pick(21, 124, 410) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(n as u32, m as u32);
    let s = l.array_f64(m as u32);
    let q = l.array_f64(n as u32);
    let p = l.array_f64(m as u32);
    let r = l.array_f64(n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(m), |f| {
            p.set(f, i.get(), init_val_expr(i.get(), 1, ci(0), 1, 101));
        });
        fi.for_i32(i, ci(0), ci(n), |f| {
            r.set(f, i.get(), init_val_expr(i.get(), 2, ci(0), 2, 103));
            f.for_i32(j, ci(0), ci(m), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 3, j.get(), 1, 100),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        fk.for_i32(i, ci(0), ci(m), |f| {
            s.set(f, i.get(), cf(0.0));
        });
        fk.for_i32(i, ci(0), ci(n), |f| {
            q.set(f, i.get(), cf(0.0));
            f.for_i32(j, ci(0), ci(m), |f| {
                s.set(
                    f,
                    j.get(),
                    s.at(j.get()) + r.at(i.get()) * a.at(i.get(), j.get()),
                );
                q.set(
                    f,
                    i.get(),
                    q.at(i.get()) + a.at(i.get(), j.get()) * p.at(j.get()),
                );
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[s, q]));

    struct St {
        m: usize,
        n: usize,
        a: Vec<f64>,
        s: Vec<f64>,
        q: Vec<f64>,
        p: Vec<f64>,
        r: Vec<f64>,
    }
    let (m_, n_) = (m as usize, n as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                m: m_,
                n: n_,
                a: vec![0.0; n_ * m_],
                s: vec![0.0; m_],
                q: vec![0.0; n_],
                p: vec![0.0; m_],
                r: vec![0.0; n_],
            },
            init: |s: &mut St| {
                for i in 0..s.m {
                    s.p[i] = init_val(i as i64, 1, 0, 1, 101);
                }
                for i in 0..s.n {
                    s.r[i] = init_val(i as i64, 2, 0, 2, 103);
                    for j in 0..s.m {
                        s.a[i * s.m + j] = init_val(i as i64, 3, j as i64, 1, 100);
                    }
                }
            },
            kernel: |st: &mut St| {
                for i in 0..st.m {
                    st.s[i] = 0.0;
                }
                for i in 0..st.n {
                    st.q[i] = 0.0;
                    for j in 0..st.m {
                        st.s[j] += st.r[i] * st.a[i * st.m + j];
                        st.q[i] += st.a[i * st.m + j] * st.p[j];
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.s, &s.q]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("bicg", "polybench", module, native)
}

/// `gesummv`: y = alpha·A·x + beta·B·x.
pub fn gesummv(d: Dataset) -> Benchmark {
    let n = d.pick(16, 250, 1000) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(n as u32, n as u32);
    let b = l.array2_f64(n as u32, n as u32);
    let tmp = l.array_f64(n as u32);
    let x = l.array_f64(n as u32);
    let y = l.array_f64(n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            x.set(f, i.get(), init_val_expr(i.get(), 1, ci(0), 0, 101));
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 3, j.get(), 1, 100),
                );
                b.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 4, j.get(), 2, 99),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        fk.for_i32(i, ci(0), ci(n), |f| {
            tmp.set(f, i.get(), cf(0.0));
            y.set(f, i.get(), cf(0.0));
            f.for_i32(j, ci(0), ci(n), |f| {
                tmp.set(
                    f,
                    i.get(),
                    a.at(i.get(), j.get()) * x.at(j.get()) + tmp.at(i.get()),
                );
                y.set(
                    f,
                    i.get(),
                    b.at(i.get(), j.get()) * x.at(j.get()) + y.at(i.get()),
                );
            });
            y.set(
                f,
                i.get(),
                cf(ALPHA) * tmp.at(i.get()) + cf(BETA) * y.at(i.get()),
            );
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[y]));

    struct St {
        n: usize,
        a: Vec<f64>,
        b: Vec<f64>,
        tmp: Vec<f64>,
        x: Vec<f64>,
        y: Vec<f64>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                a: vec![0.0; n_ * n_],
                b: vec![0.0; n_ * n_],
                tmp: vec![0.0; n_],
                x: vec![0.0; n_],
                y: vec![0.0; n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    s.x[i] = init_val(i as i64, 1, 0, 0, 101);
                    for j in 0..s.n {
                        s.a[i * s.n + j] = init_val(i as i64, 3, j as i64, 1, 100);
                        s.b[i * s.n + j] = init_val(i as i64, 4, j as i64, 2, 99);
                    }
                }
            },
            kernel: |s: &mut St| {
                for i in 0..s.n {
                    s.tmp[i] = 0.0;
                    s.y[i] = 0.0;
                    for j in 0..s.n {
                        s.tmp[i] += s.a[i * s.n + j] * s.x[j];
                        s.y[i] += s.b[i * s.n + j] * s.x[j];
                    }
                    s.y[i] = ALPHA * s.tmp[i] + BETA * s.y[i];
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.y]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("gesummv", "polybench", module, native)
}

/// `gemver`: multiple matrix-vector products with rank-2 update.
pub fn gemver(d: Dataset) -> Benchmark {
    let n = d.pick(16, 120, 400) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(n as u32, n as u32);
    let u1 = l.array_f64(n as u32);
    let v1 = l.array_f64(n as u32);
    let u2 = l.array_f64(n as u32);
    let v2 = l.array_f64(n as u32);
    let w = l.array_f64(n as u32);
    let x = l.array_f64(n as u32);
    let y = l.array_f64(n as u32);
    let z = l.array_f64(n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            u1.set(f, i.get(), init_val_expr(i.get(), 1, ci(0), 0, 101));
            u2.set(f, i.get(), init_val_expr(i.get(), 2, ci(0), 1, 99));
            v1.set(f, i.get(), init_val_expr(i.get(), 3, ci(0), 2, 98));
            v2.set(f, i.get(), init_val_expr(i.get(), 4, ci(0), 3, 97));
            y.set(f, i.get(), init_val_expr(i.get(), 5, ci(0), 4, 96));
            z.set(f, i.get(), init_val_expr(i.get(), 6, ci(0), 5, 95));
            x.set(f, i.get(), cf(0.0));
            w.set(f, i.get(), cf(0.0));
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 7, j.get(), 1, 100),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        fk.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    a.at(i.get(), j.get())
                        + u1.at(i.get()) * v1.at(j.get())
                        + u2.at(i.get()) * v2.at(j.get()),
                );
            });
        });
        fk.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                x.set(
                    f,
                    i.get(),
                    x.at(i.get()) + cf(BETA) * a.at(j.get(), i.get()) * y.at(j.get()),
                );
            });
        });
        fk.for_i32(i, ci(0), ci(n), |f| {
            x.set(f, i.get(), x.at(i.get()) + z.at(i.get()));
        });
        fk.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                w.set(
                    f,
                    i.get(),
                    w.at(i.get()) + cf(ALPHA) * a.at(i.get(), j.get()) * x.at(j.get()),
                );
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[w]));

    struct St {
        n: usize,
        a: Vec<f64>,
        u1: Vec<f64>,
        v1: Vec<f64>,
        u2: Vec<f64>,
        v2: Vec<f64>,
        w: Vec<f64>,
        x: Vec<f64>,
        y: Vec<f64>,
        z: Vec<f64>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                a: vec![0.0; n_ * n_],
                u1: vec![0.0; n_],
                v1: vec![0.0; n_],
                u2: vec![0.0; n_],
                v2: vec![0.0; n_],
                w: vec![0.0; n_],
                x: vec![0.0; n_],
                y: vec![0.0; n_],
                z: vec![0.0; n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    s.u1[i] = init_val(i as i64, 1, 0, 0, 101);
                    s.u2[i] = init_val(i as i64, 2, 0, 1, 99);
                    s.v1[i] = init_val(i as i64, 3, 0, 2, 98);
                    s.v2[i] = init_val(i as i64, 4, 0, 3, 97);
                    s.y[i] = init_val(i as i64, 5, 0, 4, 96);
                    s.z[i] = init_val(i as i64, 6, 0, 5, 95);
                    s.x[i] = 0.0;
                    s.w[i] = 0.0;
                    for j in 0..s.n {
                        s.a[i * s.n + j] = init_val(i as i64, 7, j as i64, 1, 100);
                    }
                }
            },
            kernel: |s: &mut St| {
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.a[i * s.n + j] = s.a[i * s.n + j] + s.u1[i] * s.v1[j] + s.u2[i] * s.v2[j];
                    }
                }
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.x[i] += BETA * s.a[j * s.n + i] * s.y[j];
                    }
                }
                for i in 0..s.n {
                    s.x[i] += s.z[i];
                }
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.w[i] += ALPHA * s.a[i * s.n + j] * s.x[j];
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.w]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("gemver", "polybench", module, native)
}

/// `doitgen`: multi-resolution analysis kernel (3-D tensor times matrix).
pub fn doitgen(d: Dataset) -> Benchmark {
    let nq = d.pick(8, 40, 140) as i32;
    let nr = d.pick(10, 50, 150) as i32;
    let np = d.pick(12, 60, 160) as i32;

    let mut l = Layout::new();
    let a = l.array3_f64(nr as u32, nq as u32, np as u32);
    let c4 = l.array2_f64(np as u32, np as u32);
    let sum = l.array_f64(np as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let r = fi.local_i32();
        let q = fi.local_i32();
        let p = fi.local_i32();
        fi.for_i32(r, ci(0), ci(nr), |f| {
            f.for_i32(q, ci(0), ci(nq), |f| {
                f.for_i32(p, ci(0), ci(np), |f| {
                    a.set(
                        f,
                        r.get(),
                        q.get(),
                        p.get(),
                        init_val_expr(r.get() * ci(nq) + q.get(), 3, p.get(), 1, 100),
                    );
                });
            });
        });
        fi.for_i32(q, ci(0), ci(np), |f| {
            f.for_i32(p, ci(0), ci(np), |f| {
                c4.set(
                    f,
                    q.get(),
                    p.get(),
                    init_val_expr(q.get(), 2, p.get(), 2, 99),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let r = fk.local_i32();
        let q = fk.local_i32();
        let p = fk.local_i32();
        let s = fk.local_i32();
        fk.for_i32(r, ci(0), ci(nr), |f| {
            f.for_i32(q, ci(0), ci(nq), |f| {
                f.for_i32(p, ci(0), ci(np), |f| {
                    sum.set(f, p.get(), cf(0.0));
                    f.for_i32(s, ci(0), ci(np), |f| {
                        sum.set(
                            f,
                            p.get(),
                            sum.at(p.get())
                                + a.at(r.get(), q.get(), s.get()) * c4.at(s.get(), p.get()),
                        );
                    });
                });
                f.for_i32(p, ci(0), ci(np), |f| {
                    a.set(f, r.get(), q.get(), p.get(), sum.at(p.get()));
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[a.flat()]));

    struct St {
        nq: usize,
        nr: usize,
        np: usize,
        a: Vec<f64>,
        c4: Vec<f64>,
        sum: Vec<f64>,
    }
    let (nq_, nr_, np_) = (nq as usize, nr as usize, np as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                nq: nq_,
                nr: nr_,
                np: np_,
                a: vec![0.0; nr_ * nq_ * np_],
                c4: vec![0.0; np_ * np_],
                sum: vec![0.0; np_],
            },
            init: |s: &mut St| {
                for r in 0..s.nr {
                    for q in 0..s.nq {
                        for p in 0..s.np {
                            s.a[(r * s.nq + q) * s.np + p] =
                                init_val((r * s.nq + q) as i64, 3, p as i64, 1, 100);
                        }
                    }
                }
                for q in 0..s.np {
                    for p in 0..s.np {
                        s.c4[q * s.np + p] = init_val(q as i64, 2, p as i64, 2, 99);
                    }
                }
            },
            kernel: |s: &mut St| {
                for r in 0..s.nr {
                    for q in 0..s.nq {
                        for p in 0..s.np {
                            s.sum[p] = 0.0;
                            for k in 0..s.np {
                                s.sum[p] += s.a[(r * s.nq + q) * s.np + k] * s.c4[k * s.np + p];
                            }
                        }
                        for p in 0..s.np {
                            s.a[(r * s.nq + q) * s.np + p] = s.sum[p];
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.a]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("doitgen", "polybench", module, native)
}
