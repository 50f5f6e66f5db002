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
//! * `pool`: pool on/off × strategy over fresh isolates whose initial-page
//!   floor alternates between 1 and 4, each of which also grows by up to 4
//!   wasm pages and touches every page. Gated on bit-identical checksums,
//!   on pooled cells making no `mmap` and no pool miss, and on the uffd
//!   servicer populating exactly the grown pages with at most one
//!   zeropage ioctl per grown wasm page. `BENCH_pool.json`.
//! * `memsys`: isolate lifecycle, uffd vs mprotect first touch of initial
//!   and of grown memory, hazard registry vs mutex, and trap machinery.
//!   `BENCH_memsys.json`.
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

    // First touch of 16 pages, inside the initial size and in grown
    // memory. uffd registers only the tail above the initial size, so
    // its initial memory takes the same minor faults as mprotect's; grown
    // pages cost SIGBUS + UFFDIO_ZEROPAGE service against mprotect's
    // grow-time `mprotect` and minor faults. The `first_touch` rows store
    // one byte per wasm page; `every_host_page` stores one byte per 4 KiB
    // page, so each page uffd mapped to the zero page is then written.
    // Each call also reserves and tears down its memory, the same work
    // in both arms.
    if uffd {
        let touch = |s: BoundsStrategy, initial: u32, stride: u32| -> Arm<'static> {
            let config = MemoryConfig::new(s, initial, 64).with_reserve(8 << 20);
            Box::new(move || {
                let m = LinearMemory::new(&config).expect("memory");
                let base = if initial == 0 {
                    m.grow(16).expect("grow") * 65536
                } else {
                    0
                };
                catch_traps(|| {
                    (0..16 * 65536 / stride)
                        .try_for_each(|i| m.store::<u8>(base + i * stride, 0, 1))
                })
                .expect("store");
            })
        };
        let (mp, uf) = (BoundsStrategy::Mprotect, BoundsStrategy::Uffd);
        let names = ["mprotect", "uffd"];
        for (row, initial, stride) in [
            ("first_touch_initial_16_pages", 64, 65536),
            ("first_touch_grown_16_pages", 0, 65536),
            ("first_write_grown_16_pages_every_host_page", 0, 4096),
        ] {
            let mut arms = [
                touch(mp, initial, stride),
                touch(uf, initial, stride),
                touch(mp, initial, stride),
            ];
            rows.push(measure(Row::new(row), &names, &mut arms));
        }
    }

    // Arena lookup: the hazard-pointer registry (the paper's design,
    // readable from signal context), its cached-slot probe, and the
    // mutexed map a lock-based runtime would use.
    let reg: HazardRegistry<ArenaDesc> = HazardRegistry::new();
    let desc = ArenaDesc::new(0x10000, 0x10000, 0x10000, BoundsStrategy::Uffd, 0);
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

/// Most wasm pages a `pool` iteration grows its memory by and then scans:
/// every PolyBench kernel declares a maximum 4 pages above its minimum, so
/// an instance whose floor lifts it above the minimum grows by less.
const GROWN_PAGES: u32 = 4;

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
    for s in BoundsStrategy::ALL {
        if s == BoundsStrategy::Uffd && !uffd_ok {
            eprintln!("note: uffd unavailable, skipping its rows");
            continue;
        }
        for pooled in [false, true] {
            pool::drain();
            pool::configure(MemoryPoolConfig {
                capacity: if pooled { 8 } else { 0 },
                verify_zero: false,
            });
            // Iterations alternate the initial-page floor, so a pooled
            // cell serves two shapes wherever the kernel's declared
            // minimum is below the larger floor.
            let configs =
                [1, 4].map(|floor| MemoryConfig::new(s, floor, 256).with_reserve(512 << 16));
            let one_iter = |i: u32, lat: &mut Vec<f64>| -> (f64, u32) {
                let t = Instant::now();
                let mut inst = loaded
                    .instantiate(&configs[i as usize % 2], &linker)
                    .unwrap();
                lat.push(t.elapsed().as_secs_f64() * 1e6);
                inst.invoke("init", &[]).unwrap();
                inst.invoke("kernel", &[]).unwrap();
                let checksum = inst
                    .invoke("checksum", &[])
                    .unwrap()
                    .and_then(|v| v.as_f64())
                    .unwrap_or(f64::NAN);
                // Touch every initial and freshly grown page. A uffd
                // memory leaves its initial memory unregistered, pooled or
                // not, so only the grown pages reach the fault servicer.
                let mem = inst.memory().expect("memory");
                let delta = GROWN_PAGES.min(mem.max_pages() - mem.size_pages());
                let end = (mem.grow(delta).expect("grow") + delta) * 65536;
                catch_traps(|| {
                    (0..end)
                        .step_by(4096)
                        .try_for_each(|a| mem.store::<u8>(a, 0, 1))
                })
                .expect("initial and grown pages");
                (checksum, delta)
            };
            // Warm-up parks one arena of each shape, so the measured
            // window sees steady-state hits when pooling is on.
            let mut scratch = Vec::new();
            for i in 0..2 {
                one_iter(i, &mut scratch);
            }
            let vm0 = lb_core::stats::snapshot();
            let tele0 = lb_telemetry::snapshot();
            let mut lat = Vec::with_capacity(iters as usize);
            let (mut checksum, mut grown) = (0.0f64, 0u32);
            for i in 0..iters {
                let (sum, delta) = one_iter(i, &mut lat);
                (checksum, grown) = (sum, grown + delta);
            }
            let vm = lb_core::stats::snapshot().delta(&vm0);
            let tele = lb_telemetry::snapshot().delta_since(&tele0);
            lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let inst_us = lat[lat.len() / 2];
            let zeropage = vm.uffd_zeropage as f64 / f64::from(iters);
            let batch_pages = tele.counter("uffd.batch_pages");
            if pooled {
                assert_eq!(
                    (vm.mmap, vm.pool_misses),
                    (0, 0),
                    "{s} pool=true: every shape must be served from the pool"
                );
            }
            if s == BoundsStrategy::Uffd {
                // Batching gate: the fault servicer zero-fills at least a
                // wasm page per ioctl, and nothing but the grown pages (16
                // host pages each); the initial pages are plain memory.
                assert!(
                    vm.uffd_zeropage > 0 && vm.uffd_zeropage <= u64::from(grown),
                    "uffd pool={pooled}: {} zeropage ioctls for {grown} grown wasm pages",
                    vm.uffd_zeropage
                );
                assert_eq!(
                    batch_pages,
                    u64::from(16 * grown),
                    "uffd pool={pooled}: host pages populated"
                );
            }
            checksums.push(checksum.to_bits());
            let row = Row::new(name)
                .text("strategy", s.name())
                .field("pool", pooled)
                .field("iters", iters)
                .field("instantiate_us_median", format!("{inst_us:.2}"))
                .field("mmap", vm.mmap)
                .field("munmap", vm.munmap)
                .field("pool_hits", vm.pool_hits)
                .field("pool_misses", vm.pool_misses)
                .field("grown_pages", grown)
                .field("zeropage_per_iter", format!("{zeropage:.2}"))
                .field("batch_pages", batch_pages)
                .field("prefetch_streaks", tele.counter("uffd.prefetch_streak"))
                .text("checksum_bits", &format!("{:#018x}", checksum.to_bits()));
            println!("{row}");
            rows.push(row);
        }
    }
    pool::configure(MemoryPoolConfig::default());
    pool::drain();

    // Correctness gate: every configuration must produce the same bits.
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "checksum diverged across strategies and pool on/off"
    );

    record::write(
        "BENCH_pool.json",
        "pool",
        "pool on/off x strategy over fresh-isolate iterations",
        &rows,
    );
}
