//! Stencil PolyBench kernels: jacobi-1d, jacobi-2d, fdtd-2d, heat-3d,
//! seidel-2d, adi.

use crate::common::{
    assemble, checksum_fn, checksum_slices, init_val, init_val_expr, ClosureKernel, Dataset,
};
use lb_dsl::expr::{f64 as cf, i32 as ci};
use lb_dsl::{Benchmark, DslFunc, Layout};

/// `jacobi-1d`: 3-point 1-D Jacobi, two arrays ping-ponged.
pub fn jacobi_1d(d: Dataset) -> Benchmark {
    let n = d.pick(30, 400, 1200) as i32;
    let tsteps = d.pick(4, 40, 100) as i32;

    let mut l = Layout::new();
    let a = l.array_f64(n as u32);
    let b = l.array_f64(n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            a.set(f, i.get(), (i.get() + ci(2)).to_f64().fdiv(cf(n as f64)));
            b.set(f, i.get(), (i.get() + ci(3)).to_f64().fdiv(cf(n as f64)));
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let t = fk.local_i32();
        let i = fk.local_i32();
        fk.for_i32(t, ci(0), ci(tsteps), |f| {
            f.for_i32(i, ci(1), ci(n - 1), |f| {
                b.set(
                    f,
                    i.get(),
                    cf(0.33333) * (a.at(i.get() - ci(1)) + a.at(i.get()) + a.at(i.get() + ci(1))),
                );
            });
            f.for_i32(i, ci(1), ci(n - 1), |f| {
                a.set(
                    f,
                    i.get(),
                    cf(0.33333) * (b.at(i.get() - ci(1)) + b.at(i.get()) + b.at(i.get() + ci(1))),
                );
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[a]));

    struct St {
        n: usize,
        t: usize,
        a: Vec<f64>,
        b: Vec<f64>,
    }
    let (n_, t_) = (n as usize, tsteps as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                t: t_,
                a: vec![0.0; n_],
                b: vec![0.0; n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    s.a[i] = (i as f64 + 2.0) / s.n as f64;
                    s.b[i] = (i as f64 + 3.0) / s.n as f64;
                }
            },
            kernel: |s: &mut St| {
                for _ in 0..s.t {
                    for i in 1..s.n - 1 {
                        s.b[i] = 0.33333 * (s.a[i - 1] + s.a[i] + s.a[i + 1]);
                    }
                    for i in 1..s.n - 1 {
                        s.a[i] = 0.33333 * (s.b[i - 1] + s.b[i] + s.b[i + 1]);
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.a]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("jacobi-1d", "polybench", module, native)
}

/// `jacobi-2d`: 5-point 2-D Jacobi.
pub fn jacobi_2d(d: Dataset) -> Benchmark {
    let n = d.pick(12, 90, 250) as i32;
    let tsteps = d.pick(4, 20, 100) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(n as u32, n as u32);
    let b = l.array2_f64(n as u32, n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 2, j.get(), 2, 100),
                );
                b.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 3, j.get(), 3, 100),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let t = fk.local_i32();
        let i = fk.local_i32();
        let j = fk.local_i32();
        fk.for_i32(t, ci(0), ci(tsteps), |f| {
            f.for_i32(i, ci(1), ci(n - 1), |f| {
                f.for_i32(j, ci(1), ci(n - 1), |f| {
                    b.set(
                        f,
                        i.get(),
                        j.get(),
                        cf(0.2)
                            * (a.at(i.get(), j.get())
                                + a.at(i.get(), j.get() - ci(1))
                                + a.at(i.get(), j.get() + ci(1))
                                + a.at(i.get() + ci(1), j.get())
                                + a.at(i.get() - ci(1), j.get())),
                    );
                });
            });
            f.for_i32(i, ci(1), ci(n - 1), |f| {
                f.for_i32(j, ci(1), ci(n - 1), |f| {
                    a.set(
                        f,
                        i.get(),
                        j.get(),
                        cf(0.2)
                            * (b.at(i.get(), j.get())
                                + b.at(i.get(), j.get() - ci(1))
                                + b.at(i.get(), j.get() + ci(1))
                                + b.at(i.get() + ci(1), j.get())
                                + b.at(i.get() - ci(1), j.get())),
                    );
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[a.flat()]));

    struct St {
        n: usize,
        t: usize,
        a: Vec<f64>,
        b: Vec<f64>,
    }
    let (n_, t_) = (n as usize, tsteps as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                t: t_,
                a: vec![0.0; n_ * n_],
                b: vec![0.0; n_ * n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.a[i * s.n + j] = init_val(i as i64, 2, j as i64, 2, 100);
                        s.b[i * s.n + j] = init_val(i as i64, 3, j as i64, 3, 100);
                    }
                }
            },
            kernel: |s: &mut St| {
                let n = s.n;
                for _ in 0..s.t {
                    for i in 1..n - 1 {
                        for j in 1..n - 1 {
                            s.b[i * n + j] = 0.2
                                * (s.a[i * n + j]
                                    + s.a[i * n + j - 1]
                                    + s.a[i * n + j + 1]
                                    + s.a[(i + 1) * n + j]
                                    + s.a[(i - 1) * n + j]);
                        }
                    }
                    for i in 1..n - 1 {
                        for j in 1..n - 1 {
                            s.a[i * n + j] = 0.2
                                * (s.b[i * n + j]
                                    + s.b[i * n + j - 1]
                                    + s.b[i * n + j + 1]
                                    + s.b[(i + 1) * n + j]
                                    + s.b[(i - 1) * n + j]);
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.a]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("jacobi-2d", "polybench", module, native)
}

/// `fdtd-2d`: 2-D finite-difference time-domain kernel.
pub fn fdtd_2d(d: Dataset) -> Benchmark {
    let tmax = d.pick(4, 20, 100) as i32;
    let nx = d.pick(10, 60, 200) as i32;
    let ny = d.pick(12, 80, 240) as i32;

    let mut l = Layout::new();
    let ex = l.array2_f64(nx as u32, ny as u32);
    let ey = l.array2_f64(nx as u32, ny as u32);
    let hz = l.array2_f64(nx as u32, ny as u32);
    let fict = l.array_f64(tmax as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(tmax), |f| {
            fict.set(f, i.get(), i.get().to_f64());
        });
        fi.for_i32(i, ci(0), ci(nx), |f| {
            f.for_i32(j, ci(0), ci(ny), |f| {
                ex.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 2, j.get(), 1, 100),
                );
                ey.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 3, j.get(), 2, 99),
                );
                hz.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 4, j.get(), 3, 98),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let t = fk.local_i32();
        let i = fk.local_i32();
        let j = fk.local_i32();
        fk.for_i32(t, ci(0), ci(tmax), |f| {
            f.for_i32(j, ci(0), ci(ny), |f| {
                ey.set(f, ci(0), j.get(), fict.at(t.get()));
            });
            f.for_i32(i, ci(1), ci(nx), |f| {
                f.for_i32(j, ci(0), ci(ny), |f| {
                    ey.set(
                        f,
                        i.get(),
                        j.get(),
                        ey.at(i.get(), j.get())
                            - cf(0.5) * (hz.at(i.get(), j.get()) - hz.at(i.get() - ci(1), j.get())),
                    );
                });
            });
            f.for_i32(i, ci(0), ci(nx), |f| {
                f.for_i32(j, ci(1), ci(ny), |f| {
                    ex.set(
                        f,
                        i.get(),
                        j.get(),
                        ex.at(i.get(), j.get())
                            - cf(0.5) * (hz.at(i.get(), j.get()) - hz.at(i.get(), j.get() - ci(1))),
                    );
                });
            });
            f.for_i32(i, ci(0), ci(nx - 1), |f| {
                f.for_i32(j, ci(0), ci(ny - 1), |f| {
                    hz.set(
                        f,
                        i.get(),
                        j.get(),
                        hz.at(i.get(), j.get())
                            - cf(0.7)
                                * (ex.at(i.get(), j.get() + ci(1)) - ex.at(i.get(), j.get())
                                    + ey.at(i.get() + ci(1), j.get())
                                    - ey.at(i.get(), j.get())),
                    );
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[ex.flat(), ey.flat(), hz.flat()]));

    struct St {
        tmax: usize,
        nx: usize,
        ny: usize,
        ex: Vec<f64>,
        ey: Vec<f64>,
        hz: Vec<f64>,
        fict: Vec<f64>,
    }
    let (t_, nx_, ny_) = (tmax as usize, nx as usize, ny as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                tmax: t_,
                nx: nx_,
                ny: ny_,
                ex: vec![0.0; nx_ * ny_],
                ey: vec![0.0; nx_ * ny_],
                hz: vec![0.0; nx_ * ny_],
                fict: vec![0.0; t_],
            },
            init: |s: &mut St| {
                for i in 0..s.tmax {
                    s.fict[i] = i as f64;
                }
                for i in 0..s.nx {
                    for j in 0..s.ny {
                        s.ex[i * s.ny + j] = init_val(i as i64, 2, j as i64, 1, 100);
                        s.ey[i * s.ny + j] = init_val(i as i64, 3, j as i64, 2, 99);
                        s.hz[i * s.ny + j] = init_val(i as i64, 4, j as i64, 3, 98);
                    }
                }
            },
            kernel: |s: &mut St| {
                let (nx, ny) = (s.nx, s.ny);
                for t in 0..s.tmax {
                    for j in 0..ny {
                        s.ey[j] = s.fict[t];
                    }
                    for i in 1..nx {
                        for j in 0..ny {
                            s.ey[i * ny + j] -= 0.5 * (s.hz[i * ny + j] - s.hz[(i - 1) * ny + j]);
                        }
                    }
                    for i in 0..nx {
                        for j in 1..ny {
                            s.ex[i * ny + j] -= 0.5 * (s.hz[i * ny + j] - s.hz[i * ny + j - 1]);
                        }
                    }
                    for i in 0..nx - 1 {
                        for j in 0..ny - 1 {
                            s.hz[i * ny + j] -= 0.7
                                * (s.ex[i * ny + j + 1] - s.ex[i * ny + j]
                                    + s.ey[(i + 1) * ny + j]
                                    - s.ey[i * ny + j]);
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.ex, &s.ey, &s.hz]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("fdtd-2d", "polybench", module, native)
}

/// `heat-3d`: 7-point 3-D heat equation stencil.
pub fn heat_3d(d: Dataset) -> Benchmark {
    let n = d.pick(8, 20, 40) as i32;
    let tsteps = d.pick(4, 20, 60) as i32;

    let mut l = Layout::new();
    let a = l.array3_f64(n as u32, n as u32, n as u32);
    let b = l.array3_f64(n as u32, n as u32, n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        let k = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                f.for_i32(k, ci(0), ci(n), |f| {
                    let v = init_val_expr(i.get() * ci(n) + j.get(), 3, k.get(), 1, 100);
                    a.set(f, i.get(), j.get(), k.get(), v.clone());
                    b.set(f, i.get(), j.get(), k.get(), v);
                });
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let t = fk.local_i32();
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        let one = ci(1);
        let _ = one;
        fk.for_i32(t, ci(0), ci(tsteps), |f| {
            for swap in 0..2 {
                let (src, dst) = if swap == 0 { (a, b) } else { (b, a) };
                f.for_i32(i, ci(1), ci(n - 1), |f| {
                    f.for_i32(j, ci(1), ci(n - 1), |f| {
                        f.for_i32(k, ci(1), ci(n - 1), |f| {
                            let c = src.at(i.get(), j.get(), k.get());
                            let term_i = cf(0.125)
                                * (src.at(i.get() + ci(1), j.get(), k.get()) - cf(2.0) * c.clone()
                                    + src.at(i.get() - ci(1), j.get(), k.get()));
                            let term_j = cf(0.125)
                                * (src.at(i.get(), j.get() + ci(1), k.get()) - cf(2.0) * c.clone()
                                    + src.at(i.get(), j.get() - ci(1), k.get()));
                            let term_k = cf(0.125)
                                * (src.at(i.get(), j.get(), k.get() + ci(1)) - cf(2.0) * c.clone()
                                    + src.at(i.get(), j.get(), k.get() - ci(1)));
                            dst.set(f, i.get(), j.get(), k.get(), term_i + term_j + term_k + c);
                        });
                    });
                });
            }
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[a.flat()]));

    struct St {
        n: usize,
        t: usize,
        a: Vec<f64>,
        b: Vec<f64>,
    }
    let (n_, t_) = (n as usize, tsteps as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                t: t_,
                a: vec![0.0; n_ * n_ * n_],
                b: vec![0.0; n_ * n_ * n_],
            },
            init: |s: &mut St| {
                let n = s.n;
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            let v = init_val((i * n + j) as i64, 3, k as i64, 1, 100);
                            s.a[(i * n + j) * n + k] = v;
                            s.b[(i * n + j) * n + k] = v;
                        }
                    }
                }
            },
            kernel: |s: &mut St| {
                fn step(src: &[f64], dst: &mut [f64], n: usize) {
                    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
                    for i in 1..n - 1 {
                        for j in 1..n - 1 {
                            for k in 1..n - 1 {
                                let c = src[idx(i, j, k)];
                                let ti = 0.125
                                    * (src[idx(i + 1, j, k)] - 2.0 * c + src[idx(i - 1, j, k)]);
                                let tj = 0.125
                                    * (src[idx(i, j + 1, k)] - 2.0 * c + src[idx(i, j - 1, k)]);
                                let tk = 0.125
                                    * (src[idx(i, j, k + 1)] - 2.0 * c + src[idx(i, j, k - 1)]);
                                dst[idx(i, j, k)] = ti + tj + tk + c;
                            }
                        }
                    }
                }
                for _ in 0..s.t {
                    step(&s.a, &mut s.b, s.n);
                    step(&s.b, &mut s.a, s.n);
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.a]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("heat-3d", "polybench", module, native)
}

/// `seidel-2d`: Gauss-Seidel 9-point in-place smoothing.
pub fn seidel_2d(d: Dataset) -> Benchmark {
    let n = d.pick(12, 80, 250) as i32;
    let tsteps = d.pick(2, 10, 40) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(n as u32, n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 2, j.get(), 2, 100),
                );
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let t = fk.local_i32();
        let i = fk.local_i32();
        let j = fk.local_i32();
        fk.for_i32(t, ci(0), ci(tsteps), |f| {
            f.for_i32(i, ci(1), ci(n - 1), |f| {
                f.for_i32(j, ci(1), ci(n - 1), |f| {
                    a.set(
                        f,
                        i.get(),
                        j.get(),
                        (a.at(i.get() - ci(1), j.get() - ci(1))
                            + a.at(i.get() - ci(1), j.get())
                            + a.at(i.get() - ci(1), j.get() + ci(1))
                            + a.at(i.get(), j.get() - ci(1))
                            + a.at(i.get(), j.get())
                            + a.at(i.get(), j.get() + ci(1))
                            + a.at(i.get() + ci(1), j.get() - ci(1))
                            + a.at(i.get() + ci(1), j.get())
                            + a.at(i.get() + ci(1), j.get() + ci(1)))
                        .fdiv(cf(9.0)),
                    );
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[a.flat()]));

    struct St {
        n: usize,
        t: usize,
        a: Vec<f64>,
    }
    let (n_, t_) = (n as usize, tsteps as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                t: t_,
                a: vec![0.0; n_ * n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.a[i * s.n + j] = init_val(i as i64, 2, j as i64, 2, 100);
                    }
                }
            },
            kernel: |s: &mut St| {
                let n = s.n;
                for _ in 0..s.t {
                    for i in 1..n - 1 {
                        for j in 1..n - 1 {
                            s.a[i * n + j] = (s.a[(i - 1) * n + j - 1]
                                + s.a[(i - 1) * n + j]
                                + s.a[(i - 1) * n + j + 1]
                                + s.a[i * n + j - 1]
                                + s.a[i * n + j]
                                + s.a[i * n + j + 1]
                                + s.a[(i + 1) * n + j - 1]
                                + s.a[(i + 1) * n + j]
                                + s.a[(i + 1) * n + j + 1])
                                / 9.0;
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.a]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("seidel-2d", "polybench", module, native)
}

/// `adi`: alternating-direction-implicit 2-D heat solver.
pub fn adi(d: Dataset) -> Benchmark {
    let n = d.pick(10, 60, 200) as i32;
    let tsteps = d.pick(2, 10, 50) as i32;

    let dx = 1.0 / n as f64;
    let dy = 1.0 / n as f64;
    let dt = 1.0 / tsteps as f64;
    let b1 = 2.0;
    let b2 = 1.0;
    let mul1 = b1 * dt / (dx * dx);
    let mul2 = b2 * dt / (dy * dy);
    let ca = -mul1 / 2.0;
    let cb = 1.0 + mul1;
    let cc = ca;
    let cd = -mul2 / 2.0;
    let ce = 1.0 + mul2;
    let cf_ = cd;

    let mut l = Layout::new();
    let u = l.array2_f64(n as u32, n as u32);
    let v = l.array2_f64(n as u32, n as u32);
    let p = l.array2_f64(n as u32, n as u32);
    let q = l.array2_f64(n as u32, n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                u.set(
                    f,
                    i.get(),
                    j.get(),
                    (i.get() + ci(n) - j.get()).to_f64().fdiv(cf(n as f64)),
                );
                v.set(f, i.get(), j.get(), cf(0.0));
                p.set(f, i.get(), j.get(), cf(0.0));
                q.set(f, i.get(), j.get(), cf(0.0));
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let t = fk.local_i32();
        let i = fk.local_i32();
        let j = fk.local_i32();
        fk.for_i32(t, ci(1), ci(tsteps + 1), |f| {
            // Column sweep.
            f.for_i32(i, ci(1), ci(n - 1), |f| {
                v.set(f, ci(0), i.get(), cf(1.0));
                p.set(f, i.get(), ci(0), cf(0.0));
                q.set(f, i.get(), ci(0), v.at(ci(0), i.get()));
                f.for_i32(j, ci(1), ci(n - 1), |f| {
                    let denom = cf(ca) * p.at(i.get(), j.get() - ci(1)) + cf(cb);
                    p.set(f, i.get(), j.get(), (-cf(cc)).fdiv(denom.clone()));
                    q.set(
                        f,
                        i.get(),
                        j.get(),
                        (-cf(cd) * u.at(j.get(), i.get() - ci(1))
                            + (cf(1.0) + cf(2.0) * cf(cd)) * u.at(j.get(), i.get())
                            - cf(cf_) * u.at(j.get(), i.get() + ci(1))
                            - cf(ca) * q.at(i.get(), j.get() - ci(1)))
                        .fdiv(denom),
                    );
                });
                v.set(f, ci(n - 1), i.get(), cf(1.0));
                f.for_i32_down(j, ci(n - 1), ci(1), |f| {
                    v.set(
                        f,
                        j.get(),
                        i.get(),
                        p.at(i.get(), j.get()) * v.at(j.get() + ci(1), i.get())
                            + q.at(i.get(), j.get()),
                    );
                });
            });
            // Row sweep.
            f.for_i32(i, ci(1), ci(n - 1), |f| {
                u.set(f, i.get(), ci(0), cf(1.0));
                p.set(f, i.get(), ci(0), cf(0.0));
                q.set(f, i.get(), ci(0), u.at(i.get(), ci(0)));
                f.for_i32(j, ci(1), ci(n - 1), |f| {
                    let denom = cf(cd) * p.at(i.get(), j.get() - ci(1)) + cf(ce);
                    p.set(f, i.get(), j.get(), (-cf(cf_)).fdiv(denom.clone()));
                    q.set(
                        f,
                        i.get(),
                        j.get(),
                        (-cf(ca) * v.at(i.get() - ci(1), j.get())
                            + (cf(1.0) + cf(2.0) * cf(ca)) * v.at(i.get(), j.get())
                            - cf(cc) * v.at(i.get() + ci(1), j.get())
                            - cf(cd) * q.at(i.get(), j.get() - ci(1)))
                        .fdiv(denom),
                    );
                });
                u.set(f, i.get(), ci(n - 1), cf(1.0));
                f.for_i32_down(j, ci(n - 1), ci(1), |f| {
                    u.set(
                        f,
                        i.get(),
                        j.get(),
                        p.at(i.get(), j.get()) * u.at(i.get(), j.get() + ci(1))
                            + q.at(i.get(), j.get()),
                    );
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[u.flat()]));

    struct St {
        n: usize,
        t: usize,
        c: [f64; 6],
        u: Vec<f64>,
        v: Vec<f64>,
        p: Vec<f64>,
        q: Vec<f64>,
    }
    let (n_, t_) = (n as usize, tsteps as usize);
    let consts = [ca, cb, cc, cd, ce, cf_];
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                t: t_,
                c: consts,
                u: vec![0.0; n_ * n_],
                v: vec![0.0; n_ * n_],
                p: vec![0.0; n_ * n_],
                q: vec![0.0; n_ * n_],
            },
            init: |s: &mut St| {
                let n = s.n;
                for i in 0..n {
                    for j in 0..n {
                        s.u[i * n + j] = (i as i64 + n as i64 - j as i64) as f64 / n as f64;
                        s.v[i * n + j] = 0.0;
                        s.p[i * n + j] = 0.0;
                        s.q[i * n + j] = 0.0;
                    }
                }
            },
            kernel: |s: &mut St| {
                let n = s.n;
                let [ca, cb, cc, cd, ce, cf_] = s.c;
                for _ in 1..=s.t {
                    for i in 1..n - 1 {
                        s.v[i] = 1.0; // v[0][i]
                        s.p[i * n] = 0.0;
                        s.q[i * n] = s.v[i];
                        for j in 1..n - 1 {
                            let denom = ca * s.p[i * n + j - 1] + cb;
                            s.p[i * n + j] = -cc / denom;
                            s.q[i * n + j] = (-cd * s.u[j * n + i - 1]
                                + (1.0 + 2.0 * cd) * s.u[j * n + i]
                                - cf_ * s.u[j * n + i + 1]
                                - ca * s.q[i * n + j - 1])
                                / denom;
                        }
                        s.v[(n - 1) * n + i] = 1.0;
                        for j in (1..n - 1).rev() {
                            s.v[j * n + i] = s.p[i * n + j] * s.v[(j + 1) * n + i] + s.q[i * n + j];
                        }
                    }
                    for i in 1..n - 1 {
                        s.u[i * n] = 1.0;
                        s.p[i * n] = 0.0;
                        s.q[i * n] = s.u[i * n];
                        for j in 1..n - 1 {
                            let denom = cd * s.p[i * n + j - 1] + ce;
                            s.p[i * n + j] = -cf_ / denom;
                            s.q[i * n + j] = (-ca * s.v[(i - 1) * n + j]
                                + (1.0 + 2.0 * ca) * s.v[i * n + j]
                                - cc * s.v[(i + 1) * n + j]
                                - cd * s.q[i * n + j - 1])
                                / denom;
                        }
                        s.u[i * n + n - 1] = 1.0;
                        for j in (1..n - 1).rev() {
                            s.u[i * n + j] = s.p[i * n + j] * s.u[i * n + j + 1] + s.q[i * n + j];
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.u]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("adi", "polybench", module, native)
}
