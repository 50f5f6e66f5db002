//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload polybench|spec --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets up the workload's modules several times (`setup_s` is the
//! median), then repeats rounds of three phases until `--seconds` is used:
//! a cold-start pass, exec rounds (native and the trap, clamp and uffd
//! strategies, alternating), and a serve window. Every phase sees the same
//! host drift because the phases alternate. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Times are reported at the workload's
//! reference host speed (`speed_scale`). The line before it records
//! provenance. Any
//! failed correctness gate ends the run with a nonzero exit code and no
//! result. See `perfbench/README.md` for what each metric means and which
//! end-to-end metric each per-layer metric should move.

mod host;
mod phases;
mod suite;
mod trace;

use phases::{Bench, Results, Window, ARMS, GENERATOR_CPU, WORKER_CPU};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use suite::{Workload, STRATEGIES};
use trace::{geomean, median, quantile};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Rounds every run makes, however short `--seconds` is; also the serve
/// windows on schedule a run needs to report a result.
const MIN_ROUNDS: usize = 3;

/// How far past `--seconds` a run keeps making rounds while fewer than
/// `MIN_ROUNDS` of its serve windows kept to schedule (the hypervisor
/// sometimes stalls the generator's CPU for hundreds of microseconds).
const MAX_OVERRUN: f64 = 1.4;

/// How far (in percent) the traced cold-start stage times may sum away
/// from the untraced cold start of the same round.
const STAGE_SUM_TOLERANCE_PCT: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: perfbench --workload polybench|spec --seed N --seconds S --trace 0|1";
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(usage.into()),
        }
    }
    let get = |k: &str| {
        flags
            .get(k)
            .ok_or_else(|| format!("missing --{k}; {usage}"))
    };
    let workload =
        Workload::parse(get("workload")?).ok_or_else(|| format!("unknown workload; {usage}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let traced = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err(format!("--trace must be 0 or 1; {usage}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    host::check_process_state()?;
    if host::cpus() <= GENERATOR_CPU {
        return Err(format!(
            "needs at least 2 CPUs, one for the shard worker and one for the load \
             generator; this process may use {}",
            host::cpus()
        ));
    }
    host::pin_to_cpu(WORKER_CPU);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kernels = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let engine = suite::engine();
        let prepared = suite::setup(args.workload, &engine)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kernels = prepared;
    }

    let mut bench = Bench::new(&kernels, args.workload, args.seed, args.traced);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        bench.cold_pass(rounds)?;
        bench.exec_rounds(args.workload.exec_reps())?;
        bench.serve_window()?;
        rounds += 1;
        let per_round = started.elapsed() / rounds as u32;
        let on_schedule = bench.res.windows.iter().filter(|w| w.on_schedule).count();
        let limit = if on_schedule >= MIN_ROUNDS {
            budget
        } else {
            budget.mul_f64(MAX_OVERRUN)
        };
        if rounds >= MIN_ROUNDS && started.elapsed() + per_round > limit {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();

    let res = &bench.res;
    check_generator(res)?;
    let metrics = if args.traced {
        per_layer(&bench, res)?
    } else {
        end_to_end(&setup_s, res, args.workload)?
    };
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }

    let trace_file = if args.traced {
        let path = format!(
            "perfbench/out/trace-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        );
        bench
            .tr
            .write_tsv(std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        host::json_str(&path)
    } else {
        "null".into()
    };

    let phase = |name: &str, i: usize| {
        format!(
            "\"{name}\": {{\"attempted\": {}, \"failed\": {}}}",
            res.ops[i].attempted, res.ops[i].failed
        )
    };
    // The generator's health and the host-drift detector, in every run.
    let lag_p99_us = over_windows(res, false, 0.5, |w| w.lag_us[1]);
    let native_iter_us = native_ns(res) / 1e3;
    let speed_scale = speed_scale(res, args.workload);
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
         \"seconds_requested\": {}, \"seconds_measured\": {measured_s}, \"rounds\": {rounds}, \
         \"setups\": {SETUPS}, \"serve_windows\": {}, \"windows_off_schedule\": {}, \
         \"loadgen_lag_us_p99\": {lag_p99_us}, \"native_iter_us\": {native_iter_us}, \
         \"speed_scale\": {speed_scale}, {}, \
         \"phases\": {{{}, {}, {}}}, \"trace_file\": {trace_file}}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.traced),
        args.seconds,
        res.windows.len(),
        res.windows.iter().filter(|w| !w.on_schedule).count(),
        host::fingerprint(),
        phase("coldstart", 0),
        phase("exec", 1),
        phase("serve", 2),
    );

    let attempted: u64 = res.ops.iter().map(|o| o.attempted).sum();
    let failed: u64 = res.ops.iter().map(|o| o.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": \"{}\"}}",
                host::json_str(&m.name),
                m.value,
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// Windows whose open-loop generator fell behind its schedule measured
/// the generator, not the server; their open-loop figures are left out.
/// A run left with fewer than `MIN_ROUNDS` windows on schedule is not
/// reported.
fn check_generator(res: &Results) -> Result<(), String> {
    let on_schedule = res.windows.iter().filter(|w| w.on_schedule).count();
    if on_schedule < MIN_ROUNDS {
        return Err(format!(
            "load generator fell behind its schedule in {} of {} serve windows",
            res.windows.len() - on_schedule,
            res.windows.len()
        ));
    }
    Ok(())
}

/// Other tenants of the host slow whole passes and windows by up to
/// half, for seconds at a time. Figures where lower is better report the
/// 10th percentile over passes or windows, figures where higher is better
/// the 90th: the rounds those tenants spared.
const SPARED_LOW: f64 = 0.1;
/// See [`SPARED_LOW`].
const SPARED_HIGH: f64 = 0.9;

/// Quantile `q`, over serve windows, of `f`. Open-loop figures (`open`)
/// come only from windows whose generator kept to its schedule.
fn over_windows(res: &Results, open: bool, q: f64, f: impl Fn(&Window) -> f64) -> f64 {
    let v: Vec<f64> = res
        .windows
        .iter()
        .filter(|w| w.on_schedule || !open)
        .map(f)
        .collect();
    quantile(&v, q)
}

/// `SPARED_LOW` quantile, over cold-start passes, of `f`.
fn over_passes(res: &Results, f: impl Fn(&[f64]) -> f64) -> f64 {
    quantile(
        &res.cold_passes.iter().map(|p| f(p)).collect::<Vec<_>>(),
        SPARED_LOW,
    )
}

/// The host's speed in this run: the `SPARED_LOW` quantile, over rounds,
/// of the round's native iteration (ns), the same quantile the time
/// metrics take over passes and windows.
fn native_ns(res: &Results) -> f64 {
    quantile(&res.native_rounds, SPARED_LOW)
}

/// What turns this run's times into times at the workload's reference
/// host speed: the reference native iteration over this run's. The host
/// runs at different speeds for minutes at a time (native iterations
/// differ by up to half between such periods), and set-up, cold start and
/// serving slow with it; the native twins run no code of the repository's
/// runtime, so the scale cancels the host and keeps every change to the
/// runtime.
fn speed_scale(res: &Results, w: Workload) -> f64 {
    w.reference_native_us() * 1e3 / native_ns(res)
}

/// Geomean over modules of (median arm iteration / median native
/// iteration).
fn slowdown(exec: &[[Vec<f64>; ARMS]], arm: usize) -> f64 {
    let ratios: Vec<f64> = exec
        .iter()
        .map(|by_arm| median(&by_arm[arm]) / median(&by_arm[0]))
        .collect();
    geomean(&ratios)
}

/// Times are at the workload's reference host speed (`speed_scale`).
fn end_to_end(setup_s: &[f64], res: &Results, w: Workload) -> Result<Vec<Metric>, String> {
    let scale = speed_scale(res, w);
    let mut m = vec![
        metric("setup_s", median(setup_s) * scale, "s"),
        metric("coldstart_p50_ms", over_passes(res, median) * scale, "ms"),
        metric(
            "coldstart_p90_ms",
            over_passes(res, |p| quantile(p, 0.9)) * scale,
            "ms",
        ),
        metric(
            "coldstart_total_ms",
            over_passes(res, |p| p.iter().sum()) * scale,
            "ms",
        ),
    ];
    for (i, s) in STRATEGIES.iter().enumerate() {
        m.push(metric(
            format!("kernels.{}_x", s.name()),
            slowdown(&res.exec, 1 + i),
            "x",
        ));
    }
    m.push(metric(
        "serve_capacity_rps",
        over_windows(res, false, SPARED_HIGH, |w| w.capacity_rps) / scale,
        "1/s",
    ));
    m.push(metric(
        "serve_p50_us",
        over_windows(res, true, SPARED_LOW, |w| w.latency_us[0]) * scale,
        "us",
    ));
    m.push(metric(
        "serve_p90_us",
        over_windows(res, true, SPARED_LOW, |w| w.latency_us[1]) * scale,
        "us",
    ));
    m.push(metric("peak_rss_mb", host::peak_rss_mb()?, "MB"));
    Ok(m)
}

/// Self times from the traced spans, reduced to per-layer metrics.
fn per_layer(bench: &Bench<'_>, res: &Results) -> Result<Vec<Metric>, String> {
    let spans = bench.tr.self_times();
    let self_ns = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64)
            .collect()
    };
    // Cold-start spans carry (pass << 16 | module); sum a stage per pass.
    let per_pass_ms = |name: &str| -> Vec<f64> {
        let mut by_pass: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, ns) in spans.iter().filter(|(s, _)| s.name == name) {
            *by_pass.entry(s.req >> 16).or_default() += *ns as f64 / 1e6;
        }
        by_pass.into_values().collect()
    };
    // Exec spans carry (sample << 32 | module << 8 | arm); geomean over
    // modules of each module's median, in µs.
    let exec_us = |name: &str, arm: usize| -> f64 {
        let mut by_module: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (s, ns) in spans.iter().filter(|(s, _)| s.name == name) {
            if (s.req & 0xff) as usize == arm {
                by_module
                    .entry((s.req >> 8) & 0xff_ffff)
                    .or_default()
                    .push(*ns as f64 / 1e3);
            }
        }
        geomean(&by_module.values().map(|v| median(v)).collect::<Vec<_>>())
    };

    let analysis = self_ns("analysis");
    let coldstart_ns: f64 = spans
        .iter()
        .filter(|(s, _)| s.name == "coldstart")
        .map(|(s, _)| (s.end_ns - s.start_ns) as f64)
        .sum();
    let mut sites = (0, 0, 0);
    let mut code_bytes = 0;
    for c in &res.counts {
        let c = c.ok_or("a module never ran a traced cold start")?;
        sites.0 += c.sites.0;
        sites.1 += c.sites.1;
        sites.2 += c.sites.2;
        code_bytes += c.code_bytes;
    }

    let mut m = vec![
        metric(
            "wasm.decode_us",
            median(&self_ns("wasm.decode")) / 1e3,
            "us",
        ),
        metric(
            "wasm.validate_us",
            median(&self_ns("wasm.validate")) / 1e3,
            "us",
        ),
        metric("analysis.p50_ms", median(&analysis) / 1e6, "ms"),
        metric("analysis.p90_ms", quantile(&analysis, 0.9) / 1e6, "ms"),
        metric("analysis.total_ms", median(&per_pass_ms("analysis")), "ms"),
        metric(
            "analysis.share",
            analysis.iter().sum::<f64>() / coldstart_ns,
            "ratio",
        ),
        metric("analysis.sites_elided", sites.0 as f64, "count"),
        metric("analysis.sites_emitted", sites.1 as f64, "count"),
        metric("analysis.sites_hoisted", sites.2 as f64, "count"),
        metric(
            "jit.compile_us",
            median(&self_ns("jit.compile")) / 1e3,
            "us",
        ),
        metric(
            "jit.compile_total_ms",
            median(&per_pass_ms("jit.compile")),
            "ms",
        ),
        metric("jit.code_bytes", code_bytes as f64, "bytes"),
    ];
    for (i, s) in STRATEGIES.iter().enumerate() {
        let arm = 1 + i;
        let n = s.name();
        m.push(metric(
            format!("exec.kernel_us.{n}"),
            exec_us("exec.kernel", arm),
            "us",
        ));
        m.push(metric(
            format!("exec.init_us.{n}"),
            exec_us("exec.init", arm),
            "us",
        ));
        m.push(metric(
            format!("core.instantiate_us.{n}"),
            exec_us("core.instantiate", arm),
            "us",
        ));
        m.push(metric(
            format!("core.teardown_us.{n}"),
            exec_us("core.teardown", arm),
            "us",
        ));
        m.push(metric(
            format!("core.syscalls_per_instance.{n}"),
            res.arm_syscalls[arm] as f64 / res.arm_iters[arm] as f64,
            "count",
        ));
    }
    m.push(metric(
        "native.kernel_us",
        exec_us("native.kernel", 0),
        "us",
    ));
    let uffd_arm = 1 + STRATEGIES
        .iter()
        .position(|s| *s == lb_core::BoundsStrategy::Uffd)
        .ok_or("uffd is not a measured strategy")?;
    m.push(metric(
        "core.uffd_pages_per_iter",
        res.uffd_pages as f64 / res.arm_iters[uffd_arm] as f64,
        "count",
    ));
    m.push(metric(
        "core.pool_hit_ratio",
        res.pool_hits as f64 / (res.pool_hits + res.pool_misses) as f64,
        "ratio",
    ));
    m.push(metric(
        "serve.submit_us",
        median(&self_ns("serve.submit")) / 1e3,
        "us",
    ));
    for (i, q) in ["p50", "p90"].iter().enumerate() {
        m.push(metric(
            format!("serve.queue_us_{q}"),
            over_windows(res, true, SPARED_LOW, |w| w.queue_us[i]),
            "us",
        ));
    }
    for (i, q) in ["p50", "p90"].iter().enumerate() {
        m.push(metric(
            format!("serve.run_us_{q}"),
            over_windows(res, true, SPARED_LOW, |w| w.run_us[i]),
            "us",
        ));
    }
    m.push(metric(
        "serve.p99_us",
        over_windows(res, true, SPARED_LOW, |w| w.latency_us[2]),
        "us",
    ));
    m.push(metric(
        "serve.failed_ratio",
        res.ops[2].failed as f64 / res.ops[2].attempted as f64,
        "ratio",
    ));
    m.push(metric(
        "loadgen.lag_us_p50",
        over_windows(res, false, 0.5, |w| w.lag_us[0]),
        "us",
    ));
    m.push(metric(
        "loadgen.lag_us_p99",
        over_windows(res, false, 0.5, |w| w.lag_us[1]),
        "us",
    ));

    // Tracing overhead: traced over untraced iteration time, sample
    // pairs taken side by side.
    let mut ratios = Vec::new();
    for (untraced, traced) in res.exec.iter().zip(&res.exec_traced) {
        for arm in 0..ARMS {
            ratios.push(median(&traced[arm]) / median(&untraced[arm]));
        }
    }
    m.push(metric(
        "trace.overhead_pct",
        (geomean(&ratios) - 1.0) * 100.0,
        "%",
    ));

    // Stage-sum check: the traced stages of a cold-start pass must add up
    // to the untraced pass of the same round.
    let stage_sum_pct = median(
        &res.cold_pairs
            .iter()
            .map(|(untraced, traced)| 100.0 * traced / untraced)
            .collect::<Vec<_>>(),
    );
    if (stage_sum_pct - 100.0).abs() > STAGE_SUM_TOLERANCE_PCT {
        return Err(format!(
            "cold-start stages sum to {stage_sum_pct:.1}% of the untraced cold start \
             (tolerance ±{STAGE_SUM_TOLERANCE_PCT}%)"
        ));
    }
    m.push(metric("trace.stage_sum_pct", stage_sum_pct, "%"));
    Ok(m)
}
