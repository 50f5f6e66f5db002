//! Every A/B speed comparison in the reproduction. Each mode times its
//! arms with `lb_harness::stats` (interleaved rounds in shuffled order; the
//! baseline arm repeated as the A/A control) and writes one
//! `lb_bench::record`:
//!
//! * `engines`: the engine × strategy matrix of Fig. 1, Fig. 2a and §4.4
//!   (`lb_bench::matrix`): per benchmark of `--suite` (default both),
//!   native, wavm/wasmtime/v8 under every strategy, interp under trap and
//!   native again, each arm one isolate iteration
//!   (`lb_harness::Isolate::iteration`). Prints the three figures' tables
//!   and writes them with the rows to `BENCH_engines.json`.
//! * `plan`: under trap, the default compile against `lb-analysis` off
//!   and guard fusion off, with each compile's elided and residual
//!   checks. `--suite spec` measures the SPEC proxies. `BENCH_plan.json`.
//! * `pool`: pool on/off × strategy (× uffd window) over fresh isolates,
//!   gated on bit-identical checksums and on the 16-page uffd window
//!   cutting zeropage ioctls ≥4×. `BENCH_pool.json`.
//! * `memsys`: isolate lifecycle, uffd vs mprotect first touch, hazard
//!   registry vs mutex, and trap machinery. `BENCH_memsys.json`.
//!
//! Modes take `--dataset`, `--suite` and `--bench`. Every kernel arm must
//! match the native checksum before it is timed.

use lb_bench::matrix::{self, Measured, SuiteMean};
use lb_bench::record::{self, Row};
use lb_bench::Args;
use lb_core::exec::{Engine, Instance, Linker};
use lb_core::pool::{self, MemoryPoolConfig};
use lb_core::registry::{ArenaDesc, HazardRegistry};
use lb_core::signals::catch_traps;
use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig};
use lb_dsl::Benchmark;
use lb_harness::stats::{interleave, paired, Arm};
use lb_harness::{EngineSel, Isolate};
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::Module;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().unwrap_or_default();
    let args = Args::parse_from(argv);
    match mode.as_str() {
        "engines" => engines(&args),
        "plan" => plan(&args),
        "pool" => pool_matrix(&args),
        "memsys" => memsys(),
        _ => {
            eprintln!("usage: quickperf engines|plan|pool|memsys [--dataset D] [--suite S] [--bench NAME]");
            std::process::exit(2);
        }
    }
}

/// `defaults` (PolyBench, at `--dataset`) unless `--bench` or `--suite`
/// chooses.
fn kernels(args: &Args, defaults: &[&str]) -> Vec<Benchmark> {
    if args.bench.is_some() || args.flags.contains_key("suite") {
        return args.benchmarks();
    }
    defaults
        .iter()
        .map(|n| lb_polybench::by_name(n, args.dataset).expect("known kernel"))
        .collect()
}

/// Time `arms` (labelled `names`, but for the last, the baseline's A/A
/// repeat), add the measurement to `row` and print the row.
fn measure(row: Row, names: &[&str], arms: &mut [Arm<'_>]) -> Row {
    let row = row.ab(names, &paired(&interleave(arms)));
    println!("{row}");
    row
}

/// `inst` after one run (`init`, `kernel`) whose checksum must match the
/// native twin's `expected`, as a timed arm calling `kernel`.
fn kernel_arm(mut inst: Box<dyn Instance>, arm: &str, expected: f64) -> Arm<'static> {
    inst.invoke("init", &[]).expect("init");
    inst.invoke("kernel", &[]).expect("kernel");
    let cs = inst.invoke("checksum", &[]).expect("checksum");
    check(arm, cs.and_then(|v| v.as_f64()), expected);
    Box::new(move || {
        inst.invoke("kernel", &[]).expect("kernel");
    })
}

/// Assert that `arm`'s checksum matches the native twin's `expected`.
fn check(arm: &str, cs: Option<f64>, expected: f64) {
    let cs = cs.unwrap_or(f64::NAN);
    assert!(
        lb_dsl::kernel::checksums_match(cs, expected),
        "{arm}: checksum {cs} != native {expected}"
    );
}

/// The engine × strategy matrix: per benchmark, every `matrix::cells`
/// arm as one isolate iteration, interleaved; then Fig. 1, Fig. 2a and
/// §4.4 as views of those samples.
fn engines(args: &Args) {
    let cells = matrix::cells(&lb_harness::available_strategies());
    let names: Vec<String> = cells.iter().map(|&c| matrix::name(c)).collect();
    let names: Vec<&str> = names[..cells.len() - 1]
        .iter()
        .map(String::as_str)
        .collect();
    let (mut rows, mut measured) = (Vec::new(), Vec::new());
    for bench in args.benchmarks() {
        let expected = bench.native_checksum();
        let loaded = EngineSel::WASM_RUNTIMES.map(|e| {
            let engine = e.engine().expect("wasm engine");
            (e, engine.load(&bench.module).expect("load"))
        });
        let mut arms: Vec<Arm> = Vec::new();
        for &cell in &cells {
            let isolate = match loaded.iter().find(|(e, _)| *e == cell.0) {
                // The production shape: an 8 GiB reservation.
                Some((_, m)) => Isolate::Wasm(&**m, MemoryConfig::new(cell.1, 0, 4096)),
                None => Isolate::Native(&bench.native),
            };
            let arm = format!("{}/{}", bench.name, matrix::name(cell));
            let cs = isolate
                .iteration(true)
                .unwrap_or_else(|f| panic!("{arm}: {f}"));
            check(&arm, cs, expected);
            arms.push(Box::new(move || {
                isolate.iteration(false).expect("isolate iteration");
            }));
        }
        let m = Measured::new(&bench.name, bench.suite, &cells, &interleave(&mut arms));
        let row = m.row(&names);
        println!("{row}");
        rows.push(row);
        measured.push(m);
    }

    let means = matrix::fig2a(&cells, &measured);
    let claims = matrix::replication(&means);
    print!("{}", matrix::tables(&measured, &means, &claims));
    let fig2a = |row: Row, &(suite, cell, g): &SuiteMean| {
        row.field(
            &format!("{suite}/{}", matrix::name(cell)),
            format!("{g:.4}"),
        )
    };
    rows.push(means.iter().fold(Row::new("fig2a"), fig2a));
    let claim = |row: Row, [claim, _, ours]: &[String; 3]| row.text(claim, ours);
    rows.push(claims.iter().fold(Row::new("replication"), claim));
    let what = "isolate iteration time (instantiate, init, kernel, tear down) per engine \
                and strategy as ratios to native, and each v8 strategy's ratio to v8/none \
                (Fig. 1, the fig1_* fields); then the per-suite geomeans of the ratios to \
                native (Fig. 2a) and the section 4.4 comparisons built from them";
    record::write("BENCH_engines.json", "engines", what, &rows);
}

/// The plan mode's default kernels: a representative set, then the four
/// whose triangular or data-dependent index shapes kept some checks
/// before the analysis split intervals and tracked relational facts.
const REPRESENTATIVE: &[&str] = &["gemm", "atax", "mvt", "bicg", "jacobi-2d", "trisolv"];
const PREVIOUSLY_PARTIAL: &[&str] = &["deriche", "durbin", "ludcmp", "nussinov"];

/// One compile's check decisions. A residual check is one the code still
/// performs in either form: `lea`/`cmp`/`ja` (`jit.checks.emitted`) or
/// fused against the limit table (`jit.checks.fused`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    elided: u64,
    residual: u64,
}

/// Compile `module` under `profile` for trap and instantiate it, with
/// the compile's check decisions (the JIT compiles for a strategy at its
/// first instantiation).
fn compile(profile: JitProfile, module: &Module) -> (Box<dyn Instance>, Counts) {
    let before = lb_telemetry::snapshot();
    let loaded = JitEngine::new(profile).load(module).expect("load");
    let config = MemoryConfig::new(BoundsStrategy::Trap, 0, 4096);
    let inst = loaded.instantiate(&config, &Linker::new());
    let d = lb_telemetry::snapshot().delta_since(&before);
    let counts = Counts {
        elided: d.counter("jit.checks.static_elided"),
        residual: d.counter("jit.checks.emitted") + d.counter("jit.checks.fused"),
    };
    (inst.expect("instantiate"), counts)
}

/// Start `name`'s record row with `c`. The A/A arm is a second compile,
/// whose counts `again` must repeat `c`.
fn counted(name: &str, c: Counts, again: Counts) -> Row {
    assert_eq!(c, again, "{name}: check counts must repeat");
    Row::new(name)
        .field("elided", c.elided)
        .field("residual", c.residual)
}

fn plan(args: &Args) {
    let wavm = JitProfile::wavm();
    let names = ["default", "analysis-off", "fusion-off", "default again"];
    let mut rows = Vec::new();
    for bench in kernels(args, &[REPRESENTATIVE, PREVIOUSLY_PARTIAL].concat()) {
        let profiles = [
            wavm,
            wavm.with_analysis(false),
            wavm.with_guardopt(false),
            wavm,
        ];
        let compiled = profiles.map(|p| compile(p, &bench.module));
        let counts = compiled[0].1;
        let row = counted(&bench.name, counts, compiled[3].1);
        if PREVIOUSLY_PARTIAL.contains(&bench.name.as_str()) {
            assert_eq!(counts.residual, 0, "{}: must be check-free", bench.name);
        }
        let expected = bench.native_checksum();
        let mut arms: Vec<Arm> = compiled
            .into_iter()
            .zip(names)
            .map(|((inst, _), arm)| kernel_arm(inst, &format!("{}/{arm}", bench.name), expected))
            .collect();
        rows.push(measure(row, &names[..3], &mut arms));
    }
    let what = "trap strategy, wavm profile: kernel time with the lb-analysis plan off \
                and with guard fusion off, as ratios to the default compile. Counts \
                are the default compile's; residual = emitted + fused checks";
    record::write("BENCH_plan.json", "plan", what, &rows);
}

fn memsys() {
    let mut rows = Vec::new();
    let uffd = lb_core::uffd::sigbus_mode_available();

    // Isolate lifecycle (reserve, commit 16 pages, touch one, tear down):
    // the churn that serializes on mmap_lock.
    let lifecycle = |s: BoundsStrategy| -> Arm<'static> {
        let config = MemoryConfig::new(s, 16, 64).with_reserve(64 << 20);
        Box::new(move || {
            let m = LinearMemory::new(&config).expect("memory");
            catch_traps(|| m.store::<u64>(128, 0, 42)).expect("store");
        })
    };
    let strategies = lb_harness::available_strategies();
    let names: Vec<&str> = strategies.iter().map(|s| s.name()).collect();
    let with_aa = strategies.into_iter().chain([BoundsStrategy::None]);
    let mut arms: Vec<Arm> = with_aa.map(lifecycle).collect();
    rows.push(measure(Row::new("isolate_lifecycle"), &names, &mut arms));

    // First touch of 16 pages: uffd's SIGBUS + UFFDIO_ZEROPAGE service vs
    // mprotect-backed minor faults. Each call also reserves and tears
    // down its memory, the same work in both arms.
    if uffd {
        let touch = |s: BoundsStrategy| -> Arm<'static> {
            let config = MemoryConfig::new(s, 64, 64).with_reserve(8 << 20);
            Box::new(move || {
                let m = LinearMemory::new(&config).expect("memory");
                catch_traps(|| (0..16u32).try_for_each(|p| m.store::<u8>(p * 65536, 0, 1)))
                    .expect("store");
            })
        };
        let (mp, uf) = (BoundsStrategy::Mprotect, BoundsStrategy::Uffd);
        let mut arms = [touch(mp), touch(uf), touch(mp)];
        let names = ["mprotect", "uffd"];
        rows.push(measure(Row::new("first_touch_16_pages"), &names, &mut arms));
    }

    // Arena lookup: the hazard-pointer registry (the paper's design,
    // readable from signal context), its cached-slot probe, and the
    // mutexed map a lock-based runtime would use.
    let reg: HazardRegistry<ArenaDesc> = HazardRegistry::new();
    let desc = ArenaDesc::new(0x10000, 0x10000, 0x10000, BoundsStrategy::Uffd, -1);
    let (slot, ptr) = reg.register(Box::new(desc));
    let h = reg.claim_hazard();
    let map = std::sync::Mutex::new(vec![(0x10000usize, 0x20000usize)]);
    let addr = || black_box(0x18000);
    let hazard = || {
        black_box(reg.find_with(h, |d| d.contains(addr()), |d| d.base));
    };
    let hinted = || {
        black_box(reg.find_with_hint(h, 0, |d| d.contains(addr()), |d| d.base));
    };
    let mutex = || {
        let g = map.lock().expect("map lock");
        black_box(g.iter().find(|(lo, hi)| (*lo..*hi).contains(&addr())));
    };
    let names = ["hazard", "hazard_hinted", "mutex"];
    let mut arms: [Arm; 4] = [
        Box::new(hazard),
        Box::new(hinted),
        Box::new(mutex),
        Box::new(hazard),
    ];
    rows.push(measure(Row::new("arena_registry"), &names, &mut arms));
    reg.release_hazard(h);
    reg.unregister(slot, ptr);

    // Trap machinery: `catch_traps` entry vs a full hardware out-of-bounds
    // round trip (SIGSEGV, handler, classified wasm trap).
    let config = MemoryConfig::new(BoundsStrategy::Mprotect, 1, 1).with_reserve(4 << 20);
    let m = LinearMemory::new(&config).expect("memory");
    let entry = || {
        black_box(catch_traps(|| Ok::<_, lb_core::Trap>(black_box(1) + 1))).expect("no trap");
    };
    let oob = || {
        black_box(catch_traps(|| m.load::<u8>(2 * 65536, 0))).expect_err("out of bounds");
    };
    let names = ["catch_traps_entry", "hardware_oob_roundtrip"];
    let mut arms: [Arm; 3] = [Box::new(entry), Box::new(oob), Box::new(entry)];
    rows.push(measure(Row::new("trap_machinery"), &names, &mut arms));

    let what = "memory-subsystem ablations, as ratios to each set's first arm";
    record::write("BENCH_memsys.json", "memsys", what, &rows);
}

fn pool_matrix(args: &Args) {
    let name = args.bench.as_deref().unwrap_or("gemm");
    let bench = lb_polybench::by_name(name, args.dataset).expect("known kernel");
    let engine = JitEngine::new(JitProfile::wavm());
    let loaded = engine.load(&bench.module).unwrap();
    let linker = Linker::new();
    let iters: u32 = 8;
    let uffd_ok = lb_core::uffd::sigbus_mode_available();

    let mut rows = Vec::new();
    let mut checksums = Vec::new();
    // The most zeropage ioctls per iteration of a uffd cell, by window.
    let mut uffd_zeropage = std::collections::BTreeMap::new();
    for s in BoundsStrategy::ALL {
        if s == BoundsStrategy::Uffd && !uffd_ok {
            eprintln!("note: uffd unavailable, skipping its rows");
            continue;
        }
        // The window only drives the uffd servicer; window=1 is the
        // per-page baseline the ≥4× batching claim is measured against.
        let windows: &[usize] = if s == BoundsStrategy::Uffd {
            &[1, 16]
        } else {
            &[16]
        };
        for &window in windows {
            lb_core::uffd::set_uffd_window_pages(window);
            for pooled in [false, true] {
                pool::drain();
                pool::configure(MemoryPoolConfig {
                    capacity: if pooled { 8 } else { 0 },
                    verify_zero: false,
                });
                let config = MemoryConfig::new(s, 1, 256).with_reserve(512 << 16);
                let one_iter = |lat: &mut Vec<f64>| -> f64 {
                    let t = Instant::now();
                    let mut inst = loaded.instantiate(&config, &linker).unwrap();
                    lat.push(t.elapsed().as_secs_f64() * 1e6);
                    inst.invoke("init", &[]).unwrap();
                    inst.invoke("kernel", &[]).unwrap();
                    inst.invoke("checksum", &[])
                        .unwrap()
                        .and_then(|v| v.as_f64())
                        .unwrap_or(f64::NAN)
                };
                // Warm-up fills the pool so the measured window sees
                // steady-state hits when pooling is on.
                let mut scratch = Vec::new();
                for _ in 0..2 {
                    one_iter(&mut scratch);
                }
                let vm0 = lb_core::stats::snapshot();
                let tele0 = lb_telemetry::snapshot();
                let mut lat = Vec::with_capacity(iters as usize);
                let mut checksum = 0.0f64;
                for _ in 0..iters {
                    checksum = one_iter(&mut lat);
                }
                let vm = lb_core::stats::snapshot().delta(&vm0);
                let tele = lb_telemetry::snapshot().delta_since(&tele0);
                lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let inst_us = lat[lat.len() / 2];
                let zeropage = vm.uffd_zeropage as f64 / f64::from(iters);
                if s == BoundsStrategy::Uffd {
                    let most = uffd_zeropage.entry(window).or_insert(0.0f64);
                    *most = most.max(zeropage);
                }
                checksums.push(checksum.to_bits());
                let row = Row::new(name)
                    .text("strategy", s.name())
                    .field("pool", pooled)
                    .field("window", window)
                    .field("iters", iters)
                    .field("instantiate_us_median", format!("{inst_us:.2}"))
                    .field("mmap", vm.mmap)
                    .field("munmap", vm.munmap)
                    .field("pool_hits", vm.pool_hits)
                    .field("pool_misses", vm.pool_misses)
                    .field("zeropage_per_iter", format!("{zeropage:.2}"))
                    .field("batch_pages", tele.counter("uffd.batch_pages"))
                    .field("prefetch_streaks", tele.counter("uffd.prefetch_streak"))
                    .text("checksum_bits", &format!("{:#018x}", checksum.to_bits()));
                println!("{row}");
                rows.push(row);
            }
        }
    }
    pool::configure(MemoryPoolConfig::default());
    pool::drain();
    lb_core::uffd::set_uffd_window_pages(lb_core::uffd::DEFAULT_UFFD_WINDOW_PAGES);

    // Correctness gate: every configuration must produce the same bits.
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "checksum diverged across pool/window configurations"
    );
    // Batching gate: the 16-page window must service the sequential
    // kernel with ≥4× fewer UFFDIO_ZEROPAGE ioctls than per-page mode.
    if uffd_ok {
        let (base, batched) = (uffd_zeropage[&1], uffd_zeropage[&16]);
        println!("uffd zeropage ioctls/iter: window1={base:.1} window16={batched:.1}");
        assert!(
            batched * 4.0 <= base,
            "batched fault service must cut ioctls >=4x ({base:.1} -> {batched:.1})"
        );
    }

    record::write(
        "BENCH_pool.json",
        "pool",
        "pool on/off x strategy (x uffd window) over fresh-isolate iterations",
        &rows,
    );
}
