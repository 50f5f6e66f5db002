//! `505.mcf_r` proxy — network-flow-style pointer-chasing integer workload:
//! repeated Bellman-Ford shortest-path relaxation over a synthetic sparse
//! graph (mcf's network simplex is dominated by exactly this kind of
//! integer arc scanning with data-dependent branches).

use crate::common::{
    assemble, checksum_fn_i32, checksum_slices_i32, lcg_next, lcg_pick, lcg_pick_native, lcg_step,
    ClosureKernel, Scale,
};
use lb_dsl::expr::i32 as ci;
use lb_dsl::{Benchmark, DslFunc, Layout};
use lb_wasm::types::ValType;

const INF: i32 = 1 << 29;

/// Build the `mcf` proxy benchmark.
pub fn mcf(s: Scale) -> Benchmark {
    let n = s.pick(64, 600, 2400) as i32; // nodes
    let deg = 4i32; // out-degree
    let m = n * deg; // edges
    let rounds = s.pick(4, 12, 30) as i32;

    let mut l = Layout::new();
    let edge_src = l.array_i32(m as u32);
    let edge_dst = l.array_i32(m as u32);
    let edge_cost = l.array_i32(m as u32);
    let dist = l.array_i32(n as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        let rng = fi.local_i32();
        fi.assign(rng, ci(12345));
        fi.for_i32(i, ci(0), ci(m), |f| {
            // src = i / deg (every node gets `deg` out-edges)
            edge_src.set(f, i.get(), i.get().div_s(ci(deg)));
            lcg_step(f, rng);
            edge_dst.set(f, i.get(), lcg_pick(rng, n));
            lcg_step(f, rng);
            edge_cost.set(f, i.get(), lcg_pick(rng, 1000) + ci(1));
        });
        fi.for_i32(i, ci(0), ci(n), |f| {
            dist.set(f, i.get(), ci(INF));
        });
        dist.set(&mut fi, ci(0), ci(0));
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let r = fk.local_i32();
        let e = fk.local_i32();
        let nd = fk.local_i32();
        fk.for_i32(r, ci(0), ci(rounds), |f| {
            f.for_i32(e, ci(0), ci(m), |f| {
                // nd = dist[src] + cost
                f.assign(nd, dist.at(edge_src.at(e.get())) + edge_cost.at(e.get()));
                // if nd < dist[dst]: dist[dst] = nd
                f.if_then(nd.get().lt(dist.at(edge_dst.at(e.get()))), |f| {
                    dist.set(f, edge_dst.at(e.get()), nd.get());
                });
            });
        });
    }

    let module = assemble(&l, fi, fk, checksum_fn_i32(&[dist]));

    struct St {
        n: usize,
        m: usize,
        rounds: usize,
        src: Vec<i32>,
        dst: Vec<i32>,
        cost: Vec<i32>,
        dist: Vec<i32>,
    }
    let (n_, m_, rounds_, deg_) = (n as usize, m as usize, rounds as usize, deg as u32);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                n: n_,
                m: m_,
                rounds: rounds_,
                src: vec![0; m_],
                dst: vec![0; m_],
                cost: vec![0; m_],
                dist: vec![0; n_],
            },
            init: |s: &mut St| {
                let deg = s.m / s.n;
                let mut rng = 12345u32;
                for i in 0..s.m {
                    s.src[i] = (i / deg) as i32;
                    rng = lcg_next(rng);
                    s.dst[i] = lcg_pick_native(rng, s.n as u32) as i32;
                    rng = lcg_next(rng);
                    s.cost[i] = lcg_pick_native(rng, 1000) as i32 + 1;
                }
                for d in s.dist.iter_mut() {
                    *d = INF;
                }
                s.dist[0] = 0;
            },
            kernel: |s: &mut St| {
                for _ in 0..s.rounds {
                    for e in 0..s.m {
                        let nd = s.dist[s.src[e] as usize].wrapping_add(s.cost[e]);
                        if nd < s.dist[s.dst[e] as usize] {
                            s.dist[s.dst[e] as usize] = nd;
                        }
                    }
                }
            },
            checksum: |s: &St| checksum_slices_i32(&[&s.dist]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });
    let _ = deg_;

    Benchmark::new("mcf", "spec", module, native)
}

/// `531.deepsjeng_r` proxy — alpha-beta game-tree search over a synthetic
/// deterministic game defined by integer hashing (deepsjeng is dominated by
/// recursive search with data-dependent pruning branches).
pub fn deepsjeng(s: Scale) -> Benchmark {
    let depth = s.pick(5, 7, 9) as i32;
    let branch = 5i32;
    let roots = s.pick(4, 12, 24) as i32;

    // negamax(node, depth, alpha, beta) -> score
    let mut km = lb_dsl::KernelModule::new();
    let negamax = km.declare(
        "negamax",
        &[ValType::I32, ValType::I32, ValType::I32, ValType::I32],
        Some(ValType::I32),
    );
    {
        let mut f = DslFunc::new(
            "negamax",
            &[ValType::I32, ValType::I32, ValType::I32, ValType::I32],
            Some(ValType::I32),
        );
        let node = f.param(0);
        let depth = f.param(1);
        let alpha = f.local_i32(); // mutable copy of param 2
        let beta = f.param(3);
        let h = f.local_i32();
        let i = f.local_i32();
        let child = f.local_i32();
        let score = f.local_i32();
        let p_alpha = f.param(2);
        f.assign(alpha, p_alpha.get());
        // h = node * 2654435761
        f.assign(h, node.get() * ci(-1640531535i32)); // 2654435761 as i32
                                                      // Leaf: eval = (h >>> 16) % 2001 - 1000
        f.if_then(depth.get().eqz(), |f| {
            f.ret(h.get().shr_u(ci(16)).rem_u(ci(2001)) - ci(1000));
        });
        f.for_i32(i, ci(0), ci(branch), |f| {
            // child = h ^ (i * 2246822519)
            f.assign(child, h.get().xor(i.get() * ci(-2048144777i32)));
            // score = -negamax(child, depth-1, -beta, -alpha)
            f.assign(
                score,
                -lb_dsl::call(
                    negamax,
                    vec![child.get(), depth.get() - ci(1), -beta.get(), -alpha.get()],
                ),
            );
            f.if_then(score.get().gt(alpha.get()), |f| {
                f.assign(alpha, score.get());
            });
            // Beta cutoff.
            f.if_then(alpha.get().ge(beta.get()), |f| {
                f.ret(alpha.get());
            });
        });
        f.ret(alpha.get());
        km.define(negamax, f);
    }

    let mut l = Layout::new();
    let results = l.array_i32(roots as u32);

    let mut fi = DslFunc::new("init", &[], None);
    {
        let i = fi.local_i32();
        fi.for_i32(i, ci(0), ci(roots), |f| {
            results.set(f, i.get(), ci(0));
        });
    }

    let mut fk = DslFunc::new("kernel", &[], None);
    {
        let i = fk.local_i32();
        fk.for_i32(i, ci(0), ci(roots), |f| {
            results.set(
                f,
                i.get(),
                lb_dsl::call(
                    negamax,
                    vec![i.get() + ci(1), ci(depth), ci(-(1 << 20)), ci(1 << 20)],
                ),
            );
        });
    }

    let module = crate::common::assemble_with(&l, km, fi, fk, checksum_fn_i32(&[results]));

    fn negamax_native(node: i32, depth: i32, mut alpha: i32, beta: i32, branch: i32) -> i32 {
        let h = node.wrapping_mul(-1640531535);
        if depth == 0 {
            return ((h as u32 >> 16) % 2001) as i32 - 1000;
        }
        for i in 0..branch {
            let child = h ^ i.wrapping_mul(-2048144777);
            let score = -negamax_native(child, depth - 1, -beta, -alpha, branch);
            if score > alpha {
                alpha = score;
            }
            if alpha >= beta {
                return alpha;
            }
        }
        alpha
    }

    struct St {
        roots: usize,
        depth: i32,
        branch: i32,
        results: Vec<i32>,
    }
    let (roots_, depth_, branch_) = (roots as usize, depth, branch);
    let native = Box::new(move || {
        Box::new(ClosureKernel {
            state: St {
                roots: roots_,
                depth: depth_,
                branch: branch_,
                results: vec![0; roots_],
            },
            init: |s: &mut St| {
                for r in s.results.iter_mut() {
                    *r = 0;
                }
            },
            kernel: |s: &mut St| {
                for i in 0..s.roots {
                    s.results[i] =
                        negamax_native(i as i32 + 1, s.depth, -(1 << 20), 1 << 20, s.branch);
                }
            },
            checksum: |s: &St| checksum_slices_i32(&[&s.results]),
        }) as Box<dyn lb_dsl::NativeKernel>
    });

    Benchmark::new("deepsjeng", "spec", module, native)
}
