//! Media/fluid proxies:
//!
//! * `519.lbm_r` — a D2Q9 lattice-Boltzmann stream/collide step (lbm's
//!   entire runtime is such a stencil over distribution functions);
//! * `525.x264_r` — block-matching motion estimation: sum-of-absolute-
//!   differences search over 8-bit frames (x264's hottest loop).

use crate::common::{
    assemble, checksum_fn, checksum_fn_i32, checksum_slices, checksum_slices_i32, lcg_next,
    lcg_step, ClosureKernel, Scale,
};
use lb_dsl::expr::{f64 as cf, i32 as ci};
use lb_dsl::{Benchmark, DslFunc, Layout};
use lb_wasm::instr::{Instr, MemArg};
use lb_wasm::types::ValType;

/// D2Q9 velocity set and weights.
const CX: [i32; 9] = [0, 1, 0, -1, 0, 1, -1, -1, 1];
const CY: [i32; 9] = [0, 0, 1, 0, -1, 1, 1, -1, -1];
const WGT: [f64; 9] = [
    4.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];
const OMEGA: f64 = 1.2;

/// `lbm` proxy: D2Q9 collide+stream on a periodic grid.
pub fn lbm(s: Scale) -> Benchmark {
    let nx = s.pick(12, 40, 100) as i32;
    let ny = s.pick(10, 30, 80) as i32;
    let steps = s.pick(2, 8, 20) as i32;

    let mut l = Layout::new();
    // f[dir][y][x], double-buffered.
    let f0 = l.array3_f64(9, ny as u32, nx as u32);
    let f1 = l.array3_f64(9, ny as u32, nx as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let x = fi.local_i32();
        let y = fi.local_i32();
        fi.for_i32(y, ci(0), ci(ny), |f| {
            f.for_i32(x, ci(0), ci(nx), |f| {
                for (d, &w) in WGT.iter().enumerate() {
                    // weight * (1 + small spatial perturbation)
                    let pert = (x.get() * ci(7) + y.get() * ci(13) + ci(d as i32))
                        .rem_s(ci(37))
                        .to_f64()
                        * cf(0.001);
                    f0.set(f, ci(d as i32), y.get(), x.get(), cf(w) * (cf(1.0) + pert));
                    f1.set(f, ci(d as i32), y.get(), x.get(), cf(0.0));
                }
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let t = fk.local_i32();
        let x = fk.local_i32();
        let y = fk.local_i32();
        let rho = fk.local_f64();
        let ux = fk.local_f64();
        let uy = fk.local_f64();
        let usq = fk.local_f64();
        let cu = fk.local_f64();
        let feq = fk.local_f64();
        let xs = fk.local_i32();
        let ys = fk.local_i32();
        fk.for_i32(t, ci(0), ci(steps), |f| {
            for swap in 0..2 {
                let (src, dst) = if swap == 0 { (f0, f1) } else { (f1, f0) };
                f.for_i32(y, ci(0), ci(ny), |f| {
                    f.for_i32(x, ci(0), ci(nx), |f| {
                        // Moments.
                        f.assign(rho, cf(0.0));
                        f.assign(ux, cf(0.0));
                        f.assign(uy, cf(0.0));
                        for d in 0..9usize {
                            let v = src.at(ci(d as i32), y.get(), x.get());
                            f.assign(rho, rho.get() + v.clone());
                            if CX[d] != 0 {
                                f.assign(ux, ux.get() + v.clone() * cf(CX[d] as f64));
                            }
                            if CY[d] != 0 {
                                f.assign(uy, uy.get() + v * cf(CY[d] as f64));
                            }
                        }
                        f.assign(ux, ux.get().fdiv(rho.get()));
                        f.assign(uy, uy.get().fdiv(rho.get()));
                        f.assign(usq, cf(1.5) * (ux.get() * ux.get() + uy.get() * uy.get()));
                        // Collide + stream each direction to (x+cx, y+cy).
                        for d in 0..9usize {
                            f.assign(
                                cu,
                                cf(3.0)
                                    * (ux.get() * cf(CX[d] as f64) + uy.get() * cf(CY[d] as f64)),
                            );
                            f.assign(
                                feq,
                                cf(WGT[d])
                                    * rho.get()
                                    * (cf(1.0) + cu.get() + cf(0.5) * cu.get() * cu.get()
                                        - usq.get()),
                            );
                            // periodic neighbor
                            f.assign(xs, (x.get() + ci(CX[d]) + ci(nx)).rem_s(ci(nx)));
                            f.assign(ys, (y.get() + ci(CY[d]) + ci(ny)).rem_s(ci(ny)));
                            let old = src.at(ci(d as i32), y.get(), x.get());
                            dst.set(
                                f,
                                ci(d as i32),
                                ys.get(),
                                xs.get(),
                                old.clone() + cf(OMEGA) * (feq.get() - old),
                            );
                        }
                    });
                });
            }
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn(&[f0.flat()]));

    struct St {
        nx: usize,
        ny: usize,
        steps: usize,
        f0: Vec<f64>,
        f1: Vec<f64>,
    }
    let (nx_, ny_, steps_) = (nx as usize, ny as usize, steps as usize);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                nx: nx_,
                ny: ny_,
                steps: steps_,
                f0: vec![0.0; 9 * ny_ * nx_],
                f1: vec![0.0; 9 * ny_ * nx_],
            },
            init: |s: &mut St| {
                let (nx, ny) = (s.nx, s.ny);
                for y in 0..ny {
                    for x in 0..nx {
                        for (d, &w) in WGT.iter().enumerate() {
                            let pert =
                                ((x as i32 * 7 + y as i32 * 13 + d as i32) % 37) as f64 * 0.001;
                            s.f0[(d * ny + y) * nx + x] = w * (1.0 + pert);
                            s.f1[(d * ny + y) * nx + x] = 0.0;
                        }
                    }
                }
            },
            kernel: |s: &mut St| {
                let (nx, ny) = (s.nx, s.ny);
                fn step(src: &[f64], dst: &mut [f64], nx: usize, ny: usize) {
                    let idx = |d: usize, y: usize, x: usize| (d * ny + y) * nx + x;
                    for y in 0..ny {
                        for x in 0..nx {
                            let mut rho = 0.0;
                            let mut ux = 0.0;
                            let mut uy = 0.0;
                            for d in 0..9 {
                                let v = src[idx(d, y, x)];
                                rho += v;
                                if CX[d] != 0 {
                                    ux += v * CX[d] as f64;
                                }
                                if CY[d] != 0 {
                                    uy += v * CY[d] as f64;
                                }
                            }
                            ux /= rho;
                            uy /= rho;
                            let usq = 1.5 * (ux * ux + uy * uy);
                            for d in 0..9 {
                                let cu = 3.0 * (ux * CX[d] as f64 + uy * CY[d] as f64);
                                let feq = WGT[d] * rho * (1.0 + cu + 0.5 * cu * cu - usq);
                                let xs = ((x as i32 + CX[d] + nx as i32) % nx as i32) as usize;
                                let ys = ((y as i32 + CY[d] + ny as i32) % ny as i32) as usize;
                                let old = src[idx(d, y, x)];
                                dst[idx(d, ys, xs)] = old + OMEGA * (feq - old);
                            }
                        }
                    }
                }
                for _ in 0..s.steps {
                    step(&s.f0, &mut s.f1, nx, ny);
                    step(&s.f1, &mut s.f0, nx, ny);
                }
            },
            checksum: |s: &St| checksum_slices(&[&s.f0]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("lbm", "spec", module, native)
}

/// `x264` proxy: exhaustive SAD motion search of 16×16 blocks within a
/// ±search window, over two synthetic 8-bit frames.
pub fn x264(s: Scale) -> Benchmark {
    let w = s.pick(48, 160, 320) as i32;
    let h = s.pick(32, 96, 192) as i32;
    let search = s.pick(2, 4, 8) as i32;
    const B: i32 = 16;

    let mut l = Layout::new();
    // Frames as byte arrays: use i32 arrays of bytes? Real frames are u8:
    // allocate raw byte ranges via the layout's array of i32 words and use
    // 8-bit loads/stores through raw instructions.
    let frame0 = l.array(ValType::I32, ((w * h + 3) / 4) as u32); // byte storage
    let frame1 = l.array(ValType::I32, ((w * h + 3) / 4) as u32);
    let nbx = w / B;
    let nby = h / B;
    let best_sad = l.array_i32((nbx * nby) as u32);
    let best_mv = l.array_i32((nbx * nby) as u32);

    // Byte load helper (base address + dynamic index → load8_u).
    let load8 = |base: u32, idx: lb_dsl::Expr| -> lb_dsl::Expr {
        let mut code = idx.into_code();
        code.push(Instr::I32Load8U(MemArg::offset(base)));
        lb_dsl::Expr::from_raw(code, ValType::I32)
    };
    let store8 = |f: &mut DslFunc, base: u32, idx: lb_dsl::Expr, val: lb_dsl::Expr| {
        let mut code = idx.into_code();
        code.extend(val.into_code());
        code.push(Instr::I32Store8(MemArg::offset(base)));
        f.stmt(code);
    };

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let rng = fi.local_i32();
        fi.assign(rng, ci(99));
        fi.for_i32(i, ci(0), ci(w * h), |f| {
            lcg_step(f, rng);
            store8(
                f,
                frame0.base(),
                i.get(),
                rng.get().shr_u(ci(9)).and(ci(0xFF)),
            );
            // Frame 1 is frame 0 shifted by (3, 2) with noise.
            lcg_step(f, rng);
            store8(
                f,
                frame1.base(),
                i.get(),
                rng.get().shr_u(ci(11)).and(ci(0xFF)),
            );
        });
        // Overwrite the interior of frame1 with a shifted copy of frame0 so
        // the motion search has real structure to find.
        let x = fi.local_i32();
        let y = fi.local_i32();
        fi.for_i32(y, ci(3), ci(h), |f| {
            f.for_i32(x, ci(2), ci(w), |f| {
                let src = (y.get() - ci(3)) * ci(w) + (x.get() - ci(2));
                let dst = y.get() * ci(w) + x.get();
                store8(f, frame1.base(), dst, load8(frame0.base(), src));
            });
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let bx = fk.local_i32();
        let by = fk.local_i32();
        let dx = fk.local_i32();
        let dy = fk.local_i32();
        let xx = fk.local_i32();
        let yy = fk.local_i32();
        let sad = fk.local_i32();
        let diff = fk.local_i32();
        let bidx = fk.local_i32();
        fk.for_i32(by, ci(0), ci(nby), |f| {
            f.for_i32(bx, ci(0), ci(nbx), |f| {
                f.assign(bidx, by.get() * ci(nbx) + bx.get());
                best_sad.set(f, bidx.get(), ci(1 << 30));
                best_mv.set(f, bidx.get(), ci(0));
                f.for_i32(dy, ci(0), ci(2 * search + 1), |f| {
                    f.for_i32(dx, ci(0), ci(2 * search + 1), |f| {
                        // Candidate top-left in frame0 (clamped to bounds).
                        f.assign(sad, ci(0));
                        f.for_i32(yy, ci(0), ci(B), |f| {
                            f.for_i32(xx, ci(0), ci(B), |f| {
                                let cy = by.get() * ci(B) + yy.get();
                                let cx = bx.get() * ci(B) + xx.get();
                                // Reference pixel in frame1.
                                let rp = load8(frame1.base(), cy.clone() * ci(w) + cx.clone());
                                // Candidate pixel in frame0, offset by
                                // (dx-search, dy-search), clamped via max 0
                                // and min w-1/h-1 expressed with selects.
                                let ox = cx + dx.get() - ci(search);
                                let oy = cy + dy.get() - ci(search);
                                let oxc = ci(0).select(ox.clone(), ox.clone().lt(ci(0)));
                                let oxc = ci(w - 1).select(oxc.clone(), oxc.ge(ci(w)));
                                let oyc = ci(0).select(oy.clone(), oy.clone().lt(ci(0)));
                                let oyc = ci(h - 1).select(oyc.clone(), oyc.ge(ci(h)));
                                let cp = load8(frame0.base(), oyc * ci(w) + oxc);
                                f.assign(diff, rp - cp);
                                // |diff| via select
                                let neg = -diff.get();
                                f.assign(diff, neg.select(diff.get(), diff.get().lt(ci(0))));
                                f.assign(sad, sad.get() + diff.get());
                            });
                        });
                        f.if_then(sad.get().lt(best_sad.at(bidx.get())), |f| {
                            best_sad.set(f, bidx.get(), sad.get());
                            best_mv.set(f, bidx.get(), dy.get() * ci(64) + dx.get());
                        });
                    });
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn_i32(&[best_sad, best_mv]));

    struct St {
        w: usize,
        h: usize,
        search: i32,
        f0: Vec<u8>,
        f1: Vec<u8>,
        best_sad: Vec<i32>,
        best_mv: Vec<i32>,
    }
    let (w_, h_, search_) = (w as usize, h as usize, search);
    let nblocks = (nbx * nby) as usize;
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                w: w_,
                h: h_,
                search: search_,
                f0: vec![0; w_ * h_],
                f1: vec![0; w_ * h_],
                best_sad: vec![0; nblocks],
                best_mv: vec![0; nblocks],
            },
            init: |s: &mut St| {
                let mut rng = 99u32;
                for i in 0..s.w * s.h {
                    rng = lcg_next(rng);
                    s.f0[i] = ((rng >> 9) & 0xFF) as u8;
                    rng = lcg_next(rng);
                    s.f1[i] = ((rng >> 11) & 0xFF) as u8;
                }
                for y in 3..s.h {
                    for x in 2..s.w {
                        s.f1[y * s.w + x] = s.f0[(y - 3) * s.w + (x - 2)];
                    }
                }
            },
            kernel: |s: &mut St| {
                const B: usize = 16;
                let (w, h) = (s.w, s.h);
                let (nbx, nby) = (w / B, h / B);
                let search = s.search;
                for by in 0..nby {
                    for bx in 0..nbx {
                        let bidx = by * nbx + bx;
                        s.best_sad[bidx] = 1 << 30;
                        s.best_mv[bidx] = 0;
                        for dy in 0..(2 * search + 1) {
                            for dx in 0..(2 * search + 1) {
                                let mut sad = 0i32;
                                for yy in 0..B {
                                    for xx in 0..B {
                                        let cy = (by * B + yy) as i32;
                                        let cx = (bx * B + xx) as i32;
                                        let rp = s.f1[cy as usize * w + cx as usize] as i32;
                                        let ox = (cx + dx - search).clamp(0, w as i32 - 1);
                                        let oy = (cy + dy - search).clamp(0, h as i32 - 1);
                                        let cp = s.f0[oy as usize * w + ox as usize] as i32;
                                        sad += (rp - cp).abs();
                                    }
                                }
                                if sad < s.best_sad[bidx] {
                                    s.best_sad[bidx] = sad;
                                    s.best_mv[bidx] = dy * 64 + dx;
                                }
                            }
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices_i32(&[&s.best_sad, &s.best_mv]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("x264", "spec", module, native)
}
