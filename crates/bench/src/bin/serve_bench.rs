//! Load generator for `lb-serve`: open-loop latency/throughput sweeps,
//! a closed-loop CI smoke check, and the chaos-under-load campaign.
//!
//! Modes:
//!
//! ```text
//! serve_bench                       # open-loop sweep -> BENCH_serve.json
//! serve_bench --smoke true          # short closed-loop run for scripts/ci.sh
//! serve_bench --chaos true          # >=10k-request fault campaign per strategy
//! ```
//!
//! Common flags: `--shards N` (default `LB_SERVE` or 2), `--out PATH`,
//! `--requests N` (chaos/smoke request count), `--seed N` (chaos),
//! `--jsonl PATH` (telemetry JSONL for the chaos campaign).
//!
//! The sweep steps offered load per {strategy} × {pool on/off}, reports
//! p50/p99/p999 completed latency, achieved req/s, and shed/reject
//! counts per step, then cross-checks the measured scaling knee against
//! `lb-sim`'s mm-subsystem model. The container pins everything to few
//! (often one) CPUs, so absolute rates are machine-relative; the *shape*
//! (pooled vs unpooled ratio, knee location vs prediction) is the
//! reproducible claim, mirroring how Fig. 6 is cross-validated.

use lb_core::pool::{self, MemoryPoolConfig};
use lb_core::{BoundsStrategy, Engine, Linker, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use lb_serve::{KernelSpec, Outcome, Overload, ServeConfig, Server, TenantQuota};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{FuncType, Instr, Limits, MemoryType, Module, ValType};
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn parse_flags() -> HashMap<String, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        let k = argv[i].trim_start_matches("--").to_string();
        assert!(
            argv[i].starts_with("--") && i + 1 < argv.len(),
            "usage: serve_bench [--smoke true] [--chaos true] [--shards N] \
             [--requests N] [--seed N] [--out PATH] [--jsonl PATH]"
        );
        flags.insert(k, argv[i + 1].clone());
        i += 2;
    }
    flags
}

/// The serving kernel: touch memory, return a value. Tiny on purpose —
/// the serving layer's costs (instantiation, admission, strategy memory
/// setup) are the measurand, not kernel compute.
fn kernel_module() -> Module {
    let mut m = Module::new();
    m.types.push(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(2),
        },
    });
    m.functions.push(Function {
        type_idx: 0,
        locals: vec![],
        body: vec![
            Instr::I32Const(16),
            Instr::I32Const(42),
            Instr::I32Store(lb_wasm::MemArg::offset(0)),
            Instr::I32Const(16),
            Instr::I32Load(lb_wasm::MemArg::offset(0)),
            Instr::End,
        ],
        name: Some("run".into()),
    });
    m.exports.push(Export {
        name: "run".into(),
        kind: ExportKind::Func(0),
    });
    lb_wasm::validate(&m).expect("module validates");
    m
}

fn mem_config(strategy: BoundsStrategy) -> MemoryConfig {
    // The production-shaped config: full 8 GiB virtual reservation per
    // instance (guard-page bounds checking needs it). Setting it up and
    // tearing it down — mmap, initial mprotect, uffd registration,
    // munmap with its VMA/TLB work — is exactly the cost the instance
    // pool exists to amortize, so the pooled-vs-unpooled comparison must
    // run against this reservation, not a test-sized one.
    MemoryConfig::new(strategy, 1, 2)
}

fn start_server(strategy: BoundsStrategy, shards: usize, deadline: Duration) -> Server {
    let engine = JitEngine::new(JitProfile::wavm());
    let module = engine.load(&kernel_module()).expect("load kernel");
    Server::start(
        ServeConfig {
            shards,
            queue_depth: 128,
            max_inflight: 4096,
            tenants: vec![TenantQuota::Unlimited; 4],
            default_deadline: deadline,
            pin_workers: false,
        },
        vec![KernelSpec {
            name: "store-load".into(),
            module,
            entry: "run".into(),
            args: vec![],
        }],
        mem_config(strategy),
        Linker::new(),
    )
}

fn set_pool(enabled: bool) {
    pool::drain();
    pool::configure(MemoryPoolConfig {
        capacity: if enabled { 16 } else { 0 },
        verify_zero: false,
    });
}

struct StepStats {
    offered_rps: f64,
    achieved_rps: f64,
    admitted: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    rejected: u64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Closed-loop burst: `n` requests submitted with retry-on-overload,
/// then all awaited. Returns (achieved req/s, sorted completed
/// latencies, outcome counts).
fn closed_loop(server: &Server, n: u64) -> (f64, Vec<u64>, [u64; 3]) {
    let started = Instant::now();
    let mut tickets = Vec::with_capacity(n as usize);
    for i in 0..n {
        loop {
            match server.submit((i % 4) as u32, 0, None) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(Overload::QueueFull) => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) => panic!("closed loop rejected: {e}"),
            }
        }
    }
    let mut lat = Vec::new();
    let mut counts = [0u64; 3]; // completed, failed, shed
    for t in tickets {
        match t.wait_timeout(Duration::from_secs(30)) {
            Some(Outcome::Completed { queue_ns, run_ns }) => {
                counts[0] += 1;
                lat.push(queue_ns + run_ns);
            }
            Some(Outcome::Failed { .. }) => counts[1] += 1,
            Some(Outcome::Shed { .. }) => counts[2] += 1,
            None => panic!("lost request: ticket unresolved after 30s"),
        }
    }
    let dur = started.elapsed().as_secs_f64();
    lat.sort_unstable();
    (counts[0] as f64 / dur.max(1e-9), lat, counts)
}

/// One open-loop step: submit at `rate` req/s for `dur`, then await
/// everything admitted.
fn open_loop_step(server: &Server, rate: f64, dur: Duration) -> StepStats {
    let interval_ns = (1e9 / rate) as u64;
    let started = Instant::now();
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    let mut next_ns = 0u64;
    while started.elapsed() < dur {
        let now_ns = started.elapsed().as_nanos() as u64;
        if now_ns < next_ns {
            std::thread::sleep(Duration::from_nanos(next_ns - now_ns));
        }
        next_ns += interval_ns;
        // Open loop: a rejection is recorded, never retried — offered
        // load does not slow down because the server is struggling.
        match server.submit((tickets.len() % 4) as u32, 0, None) {
            Ok(t) => tickets.push(t),
            Err(_) => rejected += 1,
        }
    }
    let admitted = tickets.len() as u64;
    let mut lat = Vec::new();
    let (mut completed, mut failed, mut shed) = (0u64, 0u64, 0u64);
    for t in tickets {
        match t.wait_timeout(Duration::from_secs(30)) {
            Some(Outcome::Completed { queue_ns, run_ns }) => {
                completed += 1;
                lat.push(queue_ns + run_ns);
            }
            Some(Outcome::Failed { .. }) => failed += 1,
            Some(Outcome::Shed { .. }) => shed += 1,
            None => panic!("lost request in open-loop step"),
        }
    }
    lat.sort_unstable();
    let wall = started.elapsed().as_secs_f64();
    StepStats {
        offered_rps: rate,
        achieved_rps: completed as f64 / wall.max(1e-9),
        admitted,
        completed,
        failed,
        shed,
        rejected,
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
        p999_ns: percentile(&lat, 0.999),
    }
}

fn sim_strategy(s: BoundsStrategy) -> lb_sim::SimStrategy {
    lb_sim::SimStrategy::parse(s.name()).unwrap_or(lb_sim::SimStrategy::Plain)
}

fn strategies() -> Vec<BoundsStrategy> {
    let mut v = vec![BoundsStrategy::Trap, BoundsStrategy::Clamp];
    if lb_core::uffd::sigbus_mode_available() {
        v.push(BoundsStrategy::Uffd);
    } else {
        eprintln!("note: uffd unavailable in this environment; skipping that column");
    }
    v
}

fn smoke(shards: usize, requests: u64) {
    set_pool(true);
    let before = lb_telemetry::snapshot();
    let server = start_server(BoundsStrategy::Trap, shards, Duration::from_secs(5));
    let (rps, lat, counts) = closed_loop(&server, requests);
    server.shutdown();
    let delta = lb_telemetry::snapshot().delta_since(&before);
    let resolved = counts[0] + counts[1] + counts[2];
    assert_eq!(
        resolved, requests,
        "smoke: {requests} admitted but only {resolved} resolved"
    );
    assert_eq!(
        delta.counter("serve.admitted"),
        resolved,
        "smoke: admission counter drifted from resolutions"
    );
    assert_eq!(
        delta.counter("serve.double_complete"),
        0,
        "smoke: double completion detected"
    );
    let hist = delta
        .histogram("serve.latency_ns")
        .expect("smoke: latency histogram missing");
    assert!(hist.count > 0, "smoke: latency histogram empty");
    assert!(
        !lat.is_empty(),
        "smoke: no completed requests to measure latency on"
    );
    println!(
        "serve_bench smoke: OK — {requests} requests, {rps:.0} req/s, p99 {} ns, zero lost",
        percentile(&lat, 0.99)
    );
    set_pool(false);
}

fn chaos(shards: usize, requests: u64, seed: u64, jsonl_path: &str) {
    let mut rows = String::new();
    let mut all_ok = true;
    for strategy in strategies() {
        set_pool(true);
        let plan = format!(
            "core.pool.reset:rate=0.01:EIO;core.mmap.reserve:rate=0.01:ENOMEM;\
             core.madvise.discard:rate=0.01:EIO;core.uffd.copy:rate=0.01:EIO;\
             serve.dispatch:rate=0.02:EIO;serve.queue_full:rate=0.005:EAGAIN;\
             seed={seed}"
        );
        let _guard = lb_chaos::install(&plan).expect("chaos plan");
        let before = lb_telemetry::snapshot();
        let server = start_server(strategy, shards, Duration::from_secs(10));
        let started = Instant::now();
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        let mut counts = [0u64; 3];
        let mut window: Vec<lb_serve::Ticket> = Vec::new();
        for i in 0..requests {
            // Closed-loop client with bounded retry: an overload
            // rejection (a full queue, real or injected) backs off
            // briefly. A request still rejected after ~100ms counts as
            // rejected.
            let give_up = Instant::now() + Duration::from_millis(100);
            loop {
                match server.submit((i % 4) as u32, 0, None) {
                    Ok(t) => {
                        admitted += 1;
                        window.push(t);
                        break;
                    }
                    Err(_) if Instant::now() < give_up => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(_) => {
                        rejected += 1;
                        break;
                    }
                }
            }
            if window.len() >= 256 {
                for t in window.drain(..) {
                    match t.wait_timeout(Duration::from_secs(30)) {
                        Some(Outcome::Completed { .. }) => counts[0] += 1,
                        Some(Outcome::Failed { .. }) => counts[1] += 1,
                        Some(Outcome::Shed { .. }) => counts[2] += 1,
                        None => panic!("chaos campaign lost a request"),
                    }
                }
            }
        }
        for t in window.drain(..) {
            match t.wait_timeout(Duration::from_secs(30)) {
                Some(Outcome::Completed { .. }) => counts[0] += 1,
                Some(Outcome::Failed { .. }) => counts[1] += 1,
                Some(Outcome::Shed { .. }) => counts[2] += 1,
                None => panic!("chaos campaign lost a request"),
            }
        }
        server.shutdown();
        let dur = started.elapsed().as_secs_f64();
        let delta = lb_telemetry::snapshot().delta_since(&before);
        let resolved = counts[0] + counts[1] + counts[2];
        let exactly_once = resolved == admitted && delta.counter("serve.double_complete") == 0;
        all_ok &= exactly_once;
        println!(
            "chaos {}: {admitted} admitted ({rejected} rejected) -> {} completed / {} failed / {} shed in {dur:.1}s; \
             pool relief = {}; exactly-once: {}",
            strategy.name(),
            counts[0],
            counts[1],
            counts[2],
            delta.counter("serve.pool.relief"),
            if exactly_once { "OK" } else { "VIOLATED" }
        );
        let meta: Vec<(&str, String)> = vec![
            ("mode", "chaos_campaign".into()),
            ("strategy", strategy.name().into()),
            ("requests", requests.to_string()),
            ("admitted", admitted.to_string()),
            ("resolved", resolved.to_string()),
            ("seed", seed.to_string()),
            ("faults", plan.clone()),
        ];
        lb_telemetry::export::write_jsonl(&mut rows, &meta, &delta);
    }
    set_pool(false);
    std::fs::write(jsonl_path, &rows).expect("write chaos jsonl");
    println!("chaos campaign telemetry -> {jsonl_path}");
    assert!(all_ok, "exactly-once invariant violated under chaos");
}

fn sweep(shards: usize, out_path: &str) {
    let mut cells = Vec::new();
    let mut pooled_ratio = Vec::new();
    for strategy in strategies() {
        // Closed-loop calibration per pool mode: the pooled-vs-unpooled
        // req/s ratio at equal (closed-loop) p99, and the base service
        // rate the open-loop steps are derived from.
        let mut base = HashMap::new();
        for pool_on in [true, false] {
            set_pool(pool_on);
            let server = start_server(strategy, shards, Duration::from_secs(5));
            // Warm the pool and the per-strategy JIT cache.
            let _ = closed_loop(&server, 64);
            let (rps, lat, _) = closed_loop(&server, 512);
            server.shutdown();
            base.insert(pool_on, (rps, percentile(&lat, 0.99)));
        }
        let (pooled_rps, pooled_p99) = base[&true];
        let (unpooled_rps, unpooled_p99) = base[&false];

        // Memory-lifecycle-only medians isolate what the pool actually
        // amortizes (mmap/mprotect/uffd-register/munmap of the 8 GiB
        // reservation) from the serving path's fixed costs.
        let mut mem_us = HashMap::new();
        for pool_on in [true, false] {
            set_pool(pool_on);
            let cfg = mem_config(strategy);
            for _ in 0..8 {
                drop(lb_core::LinearMemory::new(&cfg)); // warm pool / allocator
            }
            let mut lat: Vec<u64> = (0..64)
                .map(|_| {
                    let t = Instant::now();
                    let m = lb_core::LinearMemory::new(&cfg);
                    drop(m);
                    t.elapsed().as_nanos() as u64
                })
                .collect();
            lat.sort_unstable();
            mem_us.insert(pool_on, lat[lat.len() / 2] as f64 / 1e3);
        }
        pooled_ratio.push(format!(
            "    {{\"strategy\": \"{}\", \"pooled_rps\": {:.0}, \"pooled_p99_ns\": {}, \
             \"unpooled_rps\": {:.0}, \"unpooled_p99_ns\": {}, \"ratio\": {:.2}, \
             \"mem_lifecycle_pooled_us\": {:.1}, \"mem_lifecycle_unpooled_us\": {:.1}, \
             \"mem_lifecycle_ratio\": {:.2}}}",
            strategy.name(),
            pooled_rps,
            pooled_p99,
            unpooled_rps,
            unpooled_p99,
            pooled_rps / unpooled_rps.max(1e-9),
            mem_us[&true],
            mem_us[&false],
            mem_us[&false] / mem_us[&true].max(1e-9),
        ));

        for pool_on in [true, false] {
            set_pool(pool_on);
            let server = start_server(strategy, shards, Duration::from_millis(250));
            let _ = closed_loop(&server, 64); // warm
            let base_rps = base[&pool_on].0;
            let mut steps = Vec::new();
            let mut knee = 0f64;
            for frac in [0.25, 0.5, 0.75, 0.9, 1.0, 1.25] {
                let rate = (base_rps * frac).max(10.0);
                let st = open_loop_step(&server, rate, Duration::from_millis(400));
                if st.achieved_rps >= 0.9 * st.offered_rps {
                    knee = knee.max(st.offered_rps);
                }
                steps.push(format!(
                    "        {{\"offered_rps\": {:.0}, \"achieved_rps\": {:.0}, \"admitted\": {}, \
                     \"completed\": {}, \"failed\": {}, \"shed\": {}, \"rejected\": {}, \
                     \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
                    st.offered_rps,
                    st.achieved_rps,
                    st.admitted,
                    st.completed,
                    st.failed,
                    st.shed,
                    st.rejected,
                    st.p50_ns,
                    st.p99_ns,
                    st.p999_ns,
                ));
                println!(
                    "{:<8} pool={:<5} offered {:>7.0} rps -> achieved {:>7.0} rps, p99 {:>9} ns, shed {} rejected {}",
                    strategy.name(),
                    pool_on,
                    st.offered_rps,
                    st.achieved_rps,
                    st.p99_ns,
                    st.shed,
                    st.rejected,
                );
            }
            server.shutdown();

            // Cross-check the knee against the mm-subsystem model.
            // Calibration: per-request service time is the inverse of the
            // measured closed-loop base rate (NOT low-load latency, which
            // includes queue/wakeup time and overpredicts service by 3x);
            // simulated workers = min(shards, CPUs). The sim then layers
            // its mmap_lock/TLB-shootdown contention model on top, so the
            // check asserts the open-loop knee lands where the model says
            // a machine this size saturates. Documented tolerance: factor
            // of 3 on the knee — the calibration rate already embeds
            // strategy overhead the sim re-adds (the double-count skews
            // predictions low, worst for uffd whose modeled zeropage cost
            // is large), and a 1-CPU container adds step noise.
            let cpus = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            let threads = shards.min(cpus);
            let service_ns = (1e9 / base_rps).max(1.0) as u64;
            let params = lb_sim::SimParams::new(sim_strategy(strategy), threads, service_ns);
            let predicted = lb_sim::simulate(&params).iters_per_sec() * threads as f64;
            let ratio = if predicted > 0.0 {
                knee / predicted
            } else {
                0.0
            };
            let within = ratio >= 0.33 && ratio <= 3.0;
            cells.push(format!(
                "    {{\"strategy\": \"{}\", \"pool\": {}, \"knee_rps\": {:.0}, \
                 \"sim_predicted_rps\": {:.0}, \"knee_over_predicted\": {:.3}, \
                 \"within_tolerance\": {}, \"steps\": [\n{}\n      ]}}",
                strategy.name(),
                pool_on,
                knee,
                predicted,
                ratio,
                within,
                steps.join(",\n"),
            ));
        }
    }
    set_pool(false);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json =
        format!
    (
        "{{\n  \"description\": \"lb-serve open-loop sweep: offered-load steps x strategy x pool. \
         The knee (highest offered step with achieved >= 0.9x offered) is cross-checked against \
         lb-sim calibrated from the closed-loop base rate; documented tolerance is a factor of 3 \
         (the calibration rate already embeds strategy overhead the sim re-adds, skewing \
         predictions conservative — worst for uffd, whose modeled zeropage cost is largest). \
         pooled_vs_unpooled reports both end-to-end req/s and the isolated memory-lifecycle \
         median. NOTE: on a single-CPU container the end-to-end ratio is structurally flattened — \
         the multi-core costs the pool amortizes (munmap TLB-shootdown IPIs, mmap_lock \
         contention; paper sec. 6) need concurrency to manifest, so the end-to-end ratio here \
         bounds below the multi-core gap rather than exhibiting it.\",\n  \
         \"cpus\": {cpus},\n  \"shards\": {shards},\n  \
         \"pooled_vs_unpooled\": [\n{}\n  ],\n  \"cells\": [\n{}\n  ]\n}}\n",
        pooled_ratio.join(",\n"),
        cells.join(",\n"),
    );
    std::fs::write(out_path, json).expect("write BENCH_serve.json");
    println!("sweep -> {out_path}");
}

fn main() {
    let flags = parse_flags();
    let shards = flags
        .get("shards")
        .map(|s| s.parse().expect("--shards N"))
        .unwrap_or_else(|| {
            std::env::var("LB_SERVE")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(2)
        });
    let requests = flags
        .get("requests")
        .map(|s| s.parse().expect("--requests N"))
        .unwrap_or(10_000u64);
    let seed = flags
        .get("seed")
        .map(|s| s.parse().expect("--seed N"))
        .unwrap_or(0xC0FFEE_u64);

    if flags.contains_key("smoke") {
        smoke(shards, flags.get("requests").map_or(300, |_| requests));
    } else if flags.contains_key("chaos") {
        let jsonl = flags
            .get("jsonl")
            .cloned()
            .unwrap_or_else(|| "serve_chaos.jsonl".into());
        chaos(shards, requests, seed, &jsonl);
    } else {
        let out = flags
            .get("out")
            .cloned()
            .unwrap_or_else(|| "BENCH_serve.json".into());
        sweep(shards, &out);
    }
}
