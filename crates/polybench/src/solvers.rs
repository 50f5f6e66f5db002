//! Linear-algebra solver PolyBench kernels: cholesky, durbin, gramschmidt,
//! lu, ludcmp.
//!
//! Matrices are initialized diagonally dominant (diag = n, off-diag < 0.1)
//! so the factorizations are numerically stable without pivoting, mirroring
//! how PolyBench constructs positive-definite inputs.

use crate::common::{
    assemble, checksum_fn, checksum_slices, init_val, init_val_expr, ClosureKernel, Dataset,
};
use lb_dsl::expr::{f64 as cf, i32 as ci, Expr};
use lb_dsl::{Benchmark, DslFunc, Layout, Var};

/// Symmetric small off-diagonal value (depends on i+j and i·j only).
fn sym_off_expr(i: Expr, j: Expr) -> Expr {
    init_val_expr(i.clone() + j.clone(), 3, i * j, 1, 97) * cf(0.1)
}

fn sym_off(i: i64, j: i64) -> f64 {
    init_val(i + j, 3, i * j, 1, 97) * 0.1
}

/// `cholesky`: in-place lower Cholesky factorization.
pub fn cholesky(d: Dataset) -> Benchmark {
    let n = d.pick(16, 120, 400) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(n as u32, n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(f, i.get(), j.get(), sym_off_expr(i.get(), j.get()));
            });
            a.set(f, i.get(), i.get(), cf(n as f64));
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        fk.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), i.get(), |f| {
                f.for_i32(k, ci(0), j.get(), |f| {
                    a.set(
                        f,
                        i.get(),
                        j.get(),
                        a.at(i.get(), j.get()) - a.at(i.get(), k.get()) * a.at(j.get(), k.get()),
                    );
                });
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    a.at(i.get(), j.get()).fdiv(a.at(j.get(), j.get())),
                );
            });
            f.for_i32(k, ci(0), i.get(), |f| {
                a.set(
                    f,
                    i.get(),
                    i.get(),
                    a.at(i.get(), i.get()) - a.at(i.get(), k.get()) * a.at(i.get(), k.get()),
                );
            });
            a.set(f, i.get(), i.get(), a.at(i.get(), i.get()).sqrt());
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[a.flat()]));

    struct St {
        n: usize,
        a: Vec<f64>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                a: vec![0.0; n_ * n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.a[i * s.n + j] = sym_off(i as i64, j as i64);
                    }
                    s.a[i * s.n + i] = s.n as f64;
                }
            },
            kernel: |s: &mut St| {
                let n = s.n;
                for i in 0..n {
                    for j in 0..i {
                        for k in 0..j {
                            s.a[i * n + j] -= s.a[i * n + k] * s.a[j * n + k];
                        }
                        s.a[i * n + j] /= s.a[j * n + j];
                    }
                    for k in 0..i {
                        s.a[i * n + i] -= s.a[i * n + k] * s.a[i * n + k];
                    }
                    s.a[i * n + i] = s.a[i * n + i].sqrt();
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.a]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("cholesky", "polybench", module, native)
}

/// `durbin`: Levinson-Durbin recursion for Toeplitz systems.
pub fn durbin(d: Dataset) -> Benchmark {
    let n = d.pick(16, 120, 400) as i32;

    let mut l = Layout::new();
    let r = l.array_f64(n as u32);
    let y = l.array_f64(n as u32);
    let z = l.array_f64(n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            // r[i] = 1 / (i + 2) — a decaying, stable autocorrelation.
            r.set(f, i.get(), cf(1.0).fdiv((i.get() + ci(2)).to_f64()));
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let k: Var = fk.local_i32();
        let i = fk.local_i32();
        let alpha = fk.local_f64();
        let beta = fk.local_f64();
        let sum = fk.local_f64();

        fk.assign(alpha, -r.at(ci(0)));
        fk.assign(beta, cf(1.0));
        y.set(&mut fk, ci(0), -r.at(ci(0)));
        // A copy of the loop body per PolyBench's reference kernel.
        fk.for_i32(k, ci(1), ci(n), |f| {
            f.assign(beta, (cf(1.0) - alpha.get() * alpha.get()) * beta.get());
            f.assign(sum, cf(0.0));
            f.for_i32(i, ci(0), k.get(), |f| {
                f.assign(
                    sum,
                    sum.get() + r.at(k.get() - i.get() - ci(1)) * y.at(i.get()),
                );
            });
            f.assign(alpha, -(r.at(k.get()) + sum.get()).fdiv(beta.get()));
            f.for_i32(i, ci(0), k.get(), |f| {
                z.set(
                    f,
                    i.get(),
                    y.at(i.get()) + alpha.get() * y.at(k.get() - i.get() - ci(1)),
                );
            });
            f.for_i32(i, ci(0), k.get(), |f| {
                y.set(f, i.get(), z.at(i.get()));
            });
            y.set(f, k.get(), alpha.get());
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[y]));

    struct St {
        n: usize,
        r: Vec<f64>,
        y: Vec<f64>,
        z: Vec<f64>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                r: vec![0.0; n_],
                y: vec![0.0; n_],
                z: vec![0.0; n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    s.r[i] = 1.0 / (i as f64 + 2.0);
                }
            },
            kernel: |s: &mut St| {
                let n = s.n;
                let mut alpha = -s.r[0];
                let mut beta = 1.0f64;
                s.y[0] = -s.r[0];
                for k in 1..n {
                    beta *= 1.0 - alpha * alpha;
                    let mut sum = 0.0f64;
                    for i in 0..k {
                        sum += s.r[k - i - 1] * s.y[i];
                    }
                    alpha = -(s.r[k] + sum) / beta;
                    for i in 0..k {
                        s.z[i] = s.y[i] + alpha * s.y[k - i - 1];
                    }
                    for i in 0..k {
                        s.y[i] = s.z[i];
                    }
                    s.y[k] = alpha;
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.y]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("durbin", "polybench", module, native)
}

/// `gramschmidt`: modified Gram-Schmidt QR of a tall matrix.
pub fn gramschmidt(d: Dataset) -> Benchmark {
    let m = d.pick(12, 60, 200) as i32;
    let n = d.pick(8, 50, 240).min(d.pick(12, 60, 200)) as i32; // n ≤ m

    let mut l = Layout::new();
    let a = l.array2_f64(m as u32, n as u32);
    let r = l.array2_f64(n as u32, n as u32);
    let q = l.array2_f64(m as u32, n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(m), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                // Small pseudo-random entries plus a diagonal boost keep the
                // columns independent.
                let boost = cf(1.0).select(cf(0.0), i.get().eq(j.get()));
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    init_val_expr(i.get(), 5, j.get(), 7, 89) + boost,
                );
                q.set(f, i.get(), j.get(), cf(0.0));
            });
        });
        fi.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                r.set(f, i.get(), j.get(), cf(0.0));
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        let nrm = fk.local_f64();
        fk.for_i32(k, ci(0), ci(n), |f| {
            f.assign(nrm, cf(0.0));
            f.for_i32(i, ci(0), ci(m), |f| {
                f.assign(
                    nrm,
                    nrm.get() + a.at(i.get(), k.get()) * a.at(i.get(), k.get()),
                );
            });
            r.set(f, k.get(), k.get(), nrm.get().sqrt());
            f.for_i32(i, ci(0), ci(m), |f| {
                q.set(
                    f,
                    i.get(),
                    k.get(),
                    a.at(i.get(), k.get()).fdiv(r.at(k.get(), k.get())),
                );
            });
            f.for_i32_step(j, k.get() + ci(1), ci(n), 1, |f| {
                r.set(f, k.get(), j.get(), cf(0.0));
                f.for_i32(i, ci(0), ci(m), |f| {
                    r.set(
                        f,
                        k.get(),
                        j.get(),
                        r.at(k.get(), j.get()) + q.at(i.get(), k.get()) * a.at(i.get(), j.get()),
                    );
                });
                f.for_i32(i, ci(0), ci(m), |f| {
                    a.set(
                        f,
                        i.get(),
                        j.get(),
                        a.at(i.get(), j.get()) - q.at(i.get(), k.get()) * r.at(k.get(), j.get()),
                    );
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[r.flat(), q.flat()]));

    struct St {
        m: usize,
        n: usize,
        a: Vec<f64>,
        r: Vec<f64>,
        q: Vec<f64>,
    }
    let (m_, n_) = (m as usize, n as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                m: m_,
                n: n_,
                a: vec![0.0; m_ * n_],
                r: vec![0.0; n_ * n_],
                q: vec![0.0; m_ * n_],
            },
            init: |s: &mut St| {
                for i in 0..s.m {
                    for j in 0..s.n {
                        let boost = if i == j { 1.0 } else { 0.0 };
                        s.a[i * s.n + j] = init_val(i as i64, 5, j as i64, 7, 89) + boost;
                        s.q[i * s.n + j] = 0.0;
                    }
                }
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.r[i * s.n + j] = 0.0;
                    }
                }
            },
            kernel: |s: &mut St| {
                let (m, n) = (s.m, s.n);
                for k in 0..n {
                    let mut nrm = 0.0f64;
                    for i in 0..m {
                        nrm += s.a[i * n + k] * s.a[i * n + k];
                    }
                    s.r[k * n + k] = nrm.sqrt();
                    for i in 0..m {
                        s.q[i * n + k] = s.a[i * n + k] / s.r[k * n + k];
                    }
                    for j in k + 1..n {
                        s.r[k * n + j] = 0.0;
                        for i in 0..m {
                            s.r[k * n + j] += s.q[i * n + k] * s.a[i * n + j];
                        }
                        for i in 0..m {
                            s.a[i * n + j] -= s.q[i * n + k] * s.r[k * n + j];
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.r, &s.q]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("gramschmidt", "polybench", module, native)
}

fn dominant_init_expr(i: Expr, j: Expr) -> Expr {
    init_val_expr(i, 3, j, 1, 97) * cf(0.1)
}

fn dominant_init(i: i64, j: i64) -> f64 {
    init_val(i, 3, j, 1, 97) * 0.1
}

/// `lu`: in-place LU decomposition (no pivoting; dominant input).
pub fn lu(d: Dataset) -> Benchmark {
    let n = d.pick(16, 120, 400) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(n as u32, n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(f, i.get(), j.get(), dominant_init_expr(i.get(), j.get()));
            });
            a.set(f, i.get(), i.get(), cf(n as f64));
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        fk.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), i.get(), |f| {
                f.for_i32(k, ci(0), j.get(), |f| {
                    a.set(
                        f,
                        i.get(),
                        j.get(),
                        a.at(i.get(), j.get()) - a.at(i.get(), k.get()) * a.at(k.get(), j.get()),
                    );
                });
                a.set(
                    f,
                    i.get(),
                    j.get(),
                    a.at(i.get(), j.get()).fdiv(a.at(j.get(), j.get())),
                );
            });
            f.for_i32_step(j, i.get(), ci(n), 1, |f| {
                f.for_i32(k, ci(0), i.get(), |f| {
                    a.set(
                        f,
                        i.get(),
                        j.get(),
                        a.at(i.get(), j.get()) - a.at(i.get(), k.get()) * a.at(k.get(), j.get()),
                    );
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[a.flat()]));

    struct St {
        n: usize,
        a: Vec<f64>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                a: vec![0.0; n_ * n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    for j in 0..s.n {
                        s.a[i * s.n + j] = dominant_init(i as i64, j as i64);
                    }
                    s.a[i * s.n + i] = s.n as f64;
                }
            },
            kernel: |s: &mut St| {
                let n = s.n;
                for i in 0..n {
                    for j in 0..i {
                        for k in 0..j {
                            s.a[i * n + j] -= s.a[i * n + k] * s.a[k * n + j];
                        }
                        s.a[i * n + j] /= s.a[j * n + j];
                    }
                    for j in i..n {
                        for k in 0..i {
                            s.a[i * n + j] -= s.a[i * n + k] * s.a[k * n + j];
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.a]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("lu", "polybench", module, native)
}

/// `ludcmp`: LU decomposition plus forward/backward substitution.
pub fn ludcmp(d: Dataset) -> Benchmark {
    let n = d.pick(16, 120, 400) as i32;

    let mut l = Layout::new();
    let a = l.array2_f64(n as u32, n as u32);
    let b = l.array_f64(n as u32);
    let x = l.array_f64(n as u32);
    let y = l.array_f64(n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let j = fi.local_i32();
        fi.for_i32(i, ci(0), ci(n), |f| {
            x.set(f, i.get(), cf(0.0));
            y.set(f, i.get(), cf(0.0));
            b.set(
                f,
                i.get(),
                (i.get() + ci(1)).to_f64().fdiv(cf(n as f64)) * cf(0.5) + cf(4.0),
            );
            f.for_i32(j, ci(0), ci(n), |f| {
                a.set(f, i.get(), j.get(), dominant_init_expr(i.get(), j.get()));
            });
            a.set(f, i.get(), i.get(), cf(n as f64));
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        let j = fk.local_i32();
        let k = fk.local_i32();
        let w = fk.local_f64();
        fk.for_i32(i, ci(0), ci(n), |f| {
            f.for_i32(j, ci(0), i.get(), |f| {
                f.assign(w, a.at(i.get(), j.get()));
                f.for_i32(k, ci(0), j.get(), |f| {
                    f.assign(w, w.get() - a.at(i.get(), k.get()) * a.at(k.get(), j.get()));
                });
                a.set(f, i.get(), j.get(), w.get().fdiv(a.at(j.get(), j.get())));
            });
            f.for_i32_step(j, i.get(), ci(n), 1, |f| {
                f.assign(w, a.at(i.get(), j.get()));
                f.for_i32(k, ci(0), i.get(), |f| {
                    f.assign(w, w.get() - a.at(i.get(), k.get()) * a.at(k.get(), j.get()));
                });
                a.set(f, i.get(), j.get(), w.get());
            });
        });
        fk.for_i32(i, ci(0), ci(n), |f| {
            f.assign(w, b.at(i.get()));
            f.for_i32(j, ci(0), i.get(), |f| {
                f.assign(w, w.get() - a.at(i.get(), j.get()) * y.at(j.get()));
            });
            y.set(f, i.get(), w.get());
        });
        fk.for_i32_down(i, ci(n), ci(0), |f| {
            f.assign(w, y.at(i.get()));
            f.for_i32_step(j, i.get() + ci(1), ci(n), 1, |f| {
                f.assign(w, w.get() - a.at(i.get(), j.get()) * x.at(j.get()));
            });
            x.set(f, i.get(), w.get().fdiv(a.at(i.get(), i.get())));
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[x]));

    struct St {
        n: usize,
        a: Vec<f64>,
        b: Vec<f64>,
        x: Vec<f64>,
        y: Vec<f64>,
    }
    let n_ = n as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                a: vec![0.0; n_ * n_],
                b: vec![0.0; n_],
                x: vec![0.0; n_],
                y: vec![0.0; n_],
            },
            init: |s: &mut St| {
                for i in 0..s.n {
                    s.x[i] = 0.0;
                    s.y[i] = 0.0;
                    s.b[i] = (i as f64 + 1.0) / s.n as f64 * 0.5 + 4.0;
                    for j in 0..s.n {
                        s.a[i * s.n + j] = dominant_init(i as i64, j as i64);
                    }
                    s.a[i * s.n + i] = s.n as f64;
                }
            },
            kernel: |s: &mut St| {
                let n = s.n;
                for i in 0..n {
                    for j in 0..i {
                        let mut w = s.a[i * n + j];
                        for k in 0..j {
                            w -= s.a[i * n + k] * s.a[k * n + j];
                        }
                        s.a[i * n + j] = w / s.a[j * n + j];
                    }
                    for j in i..n {
                        let mut w = s.a[i * n + j];
                        for k in 0..i {
                            w -= s.a[i * n + k] * s.a[k * n + j];
                        }
                        s.a[i * n + j] = w;
                    }
                }
                for i in 0..n {
                    let mut w = s.b[i];
                    for j in 0..i {
                        w -= s.a[i * n + j] * s.y[j];
                    }
                    s.y[i] = w;
                }
                for i in (0..n).rev() {
                    let mut w = s.y[i];
                    for j in i + 1..n {
                        w -= s.a[i * n + j] * s.x[j];
                    }
                    s.x[i] = w / s.a[i * n + i];
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.x]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("ludcmp", "polybench", module, native)
}
