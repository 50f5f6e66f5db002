//! The checked run, reproducing the unit of work of the paper's harness
//! (§3.5): the module is loaded (compiled) once, then run for a fixed
//! number of *isolate iterations* — one instantiation (fresh linear
//! memory), `init`, `kernel`, tear-down each, which is exactly the
//! allocate/run/free churn the paper says "stresses the virtual memory
//! management subsystem". [`Isolate::iteration`] is that unit, for the
//! native baseline and every engine alike.
//!
//! A run times nothing. It checks the checksum of its last iteration and
//! returns what the run did: its telemetry, memory-subsystem, profile and
//! `/proc` deltas. Every speed comparison times the same
//! [`Isolate::iteration`] through [`crate::stats::interleave`], the one
//! loop that times isolates.
//!
//! The runner is crash-proof: a failing run (load error, instantiation
//! failure, trap, panic, timeout) becomes a [`RunOutcome::Failed`]
//! record instead of aborting the whole measurement campaign. One retry
//! with backoff absorbs transient failures; what remains is reported with
//! the stage that failed. Strategy degradation in lb-core (uffd → mprotect
//! → trap) is resolved once per run by a probe memory so every isolate in
//! the run uses the same *effective* strategy, which is recorded in the
//! JSONL export next to the requested one.

use crate::procstat::{Sampler, SysStats};
use lb_core::exec::{Engine, Linker, LoadedModule};
use lb_core::stats::{snapshot, VmSnapshot};
use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig};
use lb_dsl::{Benchmark, NativeFactory};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which execution environment to measure (the paper's six environments
/// collapse to five here: one native baseline — rustc — plus four wasm
/// runtimes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineSel {
    /// The native baseline (plain Rust, the "native Clang" stand-in).
    Native,
    /// The Wasm3-style interpreter.
    Interp,
    /// JIT with the WAVM profile.
    Wavm,
    /// JIT with the Wasmtime profile.
    Wasmtime,
    /// JIT with the V8 profile (tiered + GC pauses).
    V8,
}

impl EngineSel {
    /// All wasm runtimes (everything but the native baseline).
    pub const WASM_RUNTIMES: [EngineSel; 4] = [
        EngineSel::Interp,
        EngineSel::Wavm,
        EngineSel::Wasmtime,
        EngineSel::V8,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            EngineSel::Native => "native",
            EngineSel::Interp => "interp",
            EngineSel::Wavm => "wavm",
            EngineSel::Wasmtime => "wasmtime",
            EngineSel::V8 => "v8",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<EngineSel> {
        Some(match s {
            "native" => EngineSel::Native,
            "interp" | "wasm3" => EngineSel::Interp,
            "wavm" => EngineSel::Wavm,
            "wasmtime" => EngineSel::Wasmtime,
            "v8" => EngineSel::V8,
            _ => return None,
        })
    }

    /// Build the engine (None for the native baseline).
    pub fn engine(self) -> Option<Arc<dyn Engine>> {
        match self {
            EngineSel::Native => None,
            EngineSel::Interp => Some(Arc::new(InterpEngine::new())),
            EngineSel::Wavm => Some(Arc::new(JitEngine::new(JitProfile::wavm()))),
            EngineSel::Wasmtime => Some(Arc::new(JitEngine::new(JitProfile::wasmtime()))),
            EngineSel::V8 => Some(Arc::new(JitEngine::new(JitProfile::v8()))),
        }
    }
}

/// The bounds strategies this host can run: all five, or four when the
/// kernel refuses userfaultfd's SIGBUS mode.
pub fn available_strategies() -> Vec<BoundsStrategy> {
    let uffd = lb_core::uffd::sigbus_mode_available();
    BoundsStrategy::ALL
        .into_iter()
        .filter(|&s| s != BoundsStrategy::Uffd || uffd)
        .collect()
}

/// One run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Which runtime.
    pub engine: EngineSel,
    /// Bounds-checking strategy (ignored by the native baseline).
    pub strategy: BoundsStrategy,
    /// Isolate iterations; the last one also reads the checksum.
    pub iterations: u32,
    /// Virtual reservation per memory (8 GiB default; smaller in tests).
    pub reserve_bytes: usize,
    /// Maximum pages a memory may grow to.
    pub max_pages: u32,
    /// Sample /proc during the run.
    pub sample_system: bool,
    /// Per-run wall-clock budget; a run that exceeds it fails cleanly
    /// instead of wedging the campaign. `None` disables the deadline.
    pub timeout: Option<Duration>,
    /// Retries after a failed run attempt (with backoff) before the run
    /// is reported as [`RunOutcome::Failed`].
    pub retries: u32,
}

impl RunSpec {
    /// A reasonable default spec for quick runs.
    pub fn new(engine: EngineSel, strategy: BoundsStrategy) -> RunSpec {
        RunSpec {
            engine,
            strategy,
            iterations: 10,
            reserve_bytes: lb_core::DEFAULT_RESERVE_BYTES,
            max_pages: 4096,
            sample_system: false,
            timeout: Some(Duration::from_secs(600)),
            retries: 1,
        }
    }
}

/// The pipeline stage at which a run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStage {
    /// Compiling/loading the module into the engine.
    Load,
    /// The pre-run probe resolving the effective memory strategy.
    Probe,
    /// Instantiating an isolate (fresh linear memory).
    Instantiate,
    /// The benchmark's `init` export.
    Init,
    /// The benchmark's `kernel` export.
    Kernel,
    /// The benchmark's `checksum` export.
    Checksum,
    /// The run failed outside a specific call (panic, timeout).
    Worker,
}

impl RunStage {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            RunStage::Load => "load",
            RunStage::Probe => "probe",
            RunStage::Instantiate => "instantiate",
            RunStage::Init => "init",
            RunStage::Kernel => "kernel",
            RunStage::Checksum => "checksum",
            RunStage::Worker => "worker",
        }
    }
}

/// Why a run failed (after retries were exhausted).
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Where in the pipeline the failure happened.
    pub stage: RunStage,
    /// Human-readable error.
    pub error: String,
    /// Attempts made (1 = failed on the first try with no retry budget).
    pub attempts: u32,
}

impl RunFailure {
    fn new(stage: RunStage, err: &dyn fmt::Display) -> RunFailure {
        RunFailure {
            stage,
            error: err.to_string(),
            attempts: 0,
        }
    }
}

/// A `map_err` adapter: the error, as a failure at `stage`.
fn fail<E: fmt::Display>(stage: RunStage) -> impl Fn(E) -> RunFailure {
    move |e| RunFailure::new(stage, &e)
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run failed at {} after {} attempt(s): {}",
            self.stage.name(),
            self.attempts,
            self.error
        )
    }
}

/// Outcome of one (benchmark, spec) run: a result, or a recorded failure
/// that lets the campaign continue.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run completed (checksum validity is inside the result).
    Completed(Box<RunResult>),
    /// The run failed even after retries.
    Failed(RunFailure),
}

impl RunOutcome {
    /// The completed result, if any.
    pub fn completed(&self) -> Option<&RunResult> {
        match self {
            RunOutcome::Completed(r) => Some(r.as_ref()),
            RunOutcome::Failed(_) => None,
        }
    }
}

/// What one completed (benchmark, spec) run did.
#[derive(Debug)]
pub struct RunResult {
    /// Whether the wasm checksum matched the native twin.
    pub checksum_ok: bool,
    /// Delta of memory-subsystem counters over the run.
    pub vm: VmSnapshot,
    /// Full telemetry delta over the run (counters, histograms, spans),
    /// pruned to nonzero entries. Exported per-run when `LB_TELEMETRY`
    /// selects a sink.
    pub telemetry: lb_telemetry::TelemetrySnapshot,
    /// System statistics (when `sample_system`).
    pub sys: Option<SysStats>,
    /// The strategy the run actually executed with, after any lb-core
    /// fallback (equals the requested strategy when nothing degraded).
    pub effective_strategy: BoundsStrategy,
    /// Resolved sampling profile for the run, when `LB_PROF` selects
    /// sampling (None otherwise, and on runs where the one process-wide
    /// profiler session was already held by a concurrent run).
    pub prof: Option<lb_prof::ProfReport>,
}

/// Run one benchmark under one spec, panicking on failure.
///
/// Prefer [`run_benchmark_checked`] in campaign loops; this wrapper exists
/// for callers running known-good suites where a failure is a bug.
///
/// # Panics
/// Panics if the run fails after retries.
pub fn run_benchmark(bench: &Benchmark, spec: &RunSpec) -> RunResult {
    match run_benchmark_checked(bench, spec) {
        RunOutcome::Completed(r) => *r,
        RunOutcome::Failed(f) => panic!("{} under {}: {f}", bench.name, spec.engine.name()),
    }
}

/// Run one benchmark under one spec without ever panicking: failures
/// (including panics and timeouts) become [`RunOutcome::Failed`]
/// records — and a JSONL row with `outcome=failed` — after one bounded
/// retry cycle, so a campaign of hundreds of runs survives any single one.
pub fn run_benchmark_checked(bench: &Benchmark, spec: &RunSpec) -> RunOutcome {
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        match run_once(bench, spec) {
            Ok(result) => return RunOutcome::Completed(Box::new(result)),
            Err(mut failure) => {
                failure.attempts = attempt;
                if attempt > spec.retries {
                    lb_telemetry::counter("harness.run.failed").inc();
                    emit_failure(bench, spec, &failure);
                    return RunOutcome::Failed(failure);
                }
                lb_telemetry::counter("harness.run.retry").inc();
                // Linear backoff: transient failures (fd pressure, address
                // space churn) usually clear quickly.
                std::thread::sleep(Duration::from_millis(50 * u64::from(attempt)));
            }
        }
    }
}

fn emit_failure(bench: &Benchmark, spec: &RunSpec, failure: &RunFailure) {
    lb_telemetry::export::emit_run(
        &[
            ("bench", bench.name.to_string()),
            ("engine", spec.engine.name().to_string()),
            ("strategy", spec.strategy.name().to_string()),
            ("iterations", spec.iterations.to_string()),
            ("outcome", "failed".to_string()),
            ("stage", failure.stage.name().to_string()),
            ("error", failure.error.clone()),
            ("attempts", failure.attempts.to_string()),
        ],
        &lb_telemetry::TelemetrySnapshot::default(),
    );
}

/// Sequence number for profiler trace files, so concurrent or repeated
/// runs in one process never clobber each other's export.
static TRACE_SEQ: AtomicU32 = AtomicU32::new(0);

/// Append `<name>.p50` / `<name>.p99` columns for a histogram present in
/// the run's telemetry delta (absent histograms add no columns, keeping
/// interp rows free of jit noise and vice versa).
fn push_percentiles(
    meta: &mut Vec<(&'static str, String)>,
    telemetry: &lb_telemetry::TelemetrySnapshot,
    name: &str,
    p50_key: &'static str,
    p99_key: &'static str,
) {
    if let Some(h) = telemetry.histogram(name) {
        meta.push((p50_key, h.quantile(0.5).to_string()));
        meta.push((p99_key, h.quantile(0.99).to_string()));
    }
}

fn run_once(bench: &Benchmark, spec: &RunSpec) -> Result<RunResult, RunFailure> {
    let expected = bench.native_checksum();
    // Drain spans left over from earlier runs so this run's snapshot only
    // carries its own events; counters/histograms are handled by deltas.
    lb_telemetry::ensure_thread_ring();
    let _ = lb_telemetry::drain_spans();
    let tele_before = lb_telemetry::snapshot();
    let vm_before = snapshot();
    let sampler = spec
        .sample_system
        .then(|| Sampler::start(Duration::from_millis(20)));
    // One profiler session covers the whole run (load + instantiate +
    // kernel loops).
    lb_prof::ensure_thread();
    let prof_session = lb_prof::start();
    let deadline = spec.timeout.map(|t| Instant::now() + t);

    let raw = load(bench, spec).and_then(|wasm| {
        let (isolate, effective) = match &wasm {
            Some((module, config)) => (Isolate::Wasm(&**module, *config), config.strategy),
            None => (Isolate::Native(&bench.native), spec.strategy),
        };
        run_iterations(isolate, spec, expected, deadline).map(|ok| (ok, effective))
    });

    // Always stop the sampler and profiler and settle telemetry, success
    // or not — a failed run must not leave the SIGPROF timer armed.
    let sys = sampler.map(Sampler::stop);
    let prof = prof_session.map(|s| lb_prof::resolve_profile(s.stop()));
    let vm = snapshot().delta(&vm_before);
    let mut telemetry = lb_telemetry::snapshot_and_drain().delta_since(&tele_before);
    telemetry.retain_nonzero();
    let (checksum_ok, effective_strategy) = raw?;

    if let (Some(report), Some(dir)) = (prof.as_ref(), lb_prof::out_dir()) {
        let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
        let file = format!(
            "{}-{}-{}-{seq:04}.trace.json",
            bench.name,
            spec.engine.name(),
            effective_strategy.name()
        );
        if let Err(e) = lb_prof::write_chrome_trace(&dir.join(&file), report, &telemetry.spans) {
            eprintln!("lb-harness: trace export to {file} failed: {e}");
        }
    }

    let mut meta: Vec<(&'static str, String)> = Vec::new();
    if let Some(report) = prof.as_ref() {
        meta.push(("prof.samples", report.total.to_string()));
        meta.push(("prof.unresolved", report.unresolved.to_string()));
        meta.push(("prof.dropped", report.dropped.to_string()));
        for (label, n) in report.class_counts() {
            // Keys are 'static by construction: one per fixed class label.
            let key: &'static str = match label {
                "guard" => "prof.guard_pct",
                "clamp" => "prof.clamp_pct",
                "trap_path" => "prof.trap_pct",
                "mem_access" => "prof.mem_pct",
                "compute" => "prof.compute_pct",
                "runtime" => "prof.runtime_pct",
                _ => "prof.unresolved_pct",
            };
            meta.push((key, format!("{:.2}", report.pct(n))));
        }
    }
    // Satellite percentile columns: instantiation latency per engine tier
    // and the profiler's own handler service time.
    push_percentiles(
        &mut meta,
        &telemetry,
        "jit.instantiate_ns",
        "jit.instantiate_ns.p50",
        "jit.instantiate_ns.p99",
    );
    push_percentiles(
        &mut meta,
        &telemetry,
        "interp.instantiate_ns",
        "interp.instantiate_ns.p50",
        "interp.instantiate_ns.p99",
    );
    push_percentiles(
        &mut meta,
        &telemetry,
        "prof.sample_service_ns",
        "prof.sample_service_ns.p50",
        "prof.sample_service_ns.p99",
    );

    let mut row: Vec<(&str, String)> = vec![
        ("bench", bench.name.to_string()),
        ("engine", spec.engine.name().to_string()),
        ("strategy", spec.strategy.name().to_string()),
        ("strategy_effective", effective_strategy.name().to_string()),
        ("iterations", spec.iterations.to_string()),
        ("outcome", "completed".to_string()),
        // Static bounds-check decisions for this run (compile-time
        // counters from lb-analysis via the JIT), for the paper-style
        // "checks eliminated" column.
        (
            "checks_static_elided",
            telemetry.counter("jit.checks.static_elided").to_string(),
        ),
        (
            "checks_emitted",
            telemetry.counter("jit.checks.emitted").to_string(),
        ),
        // Sites whose trap check was fused into a single
        // compare-against-limit (`Full` tier).
        (
            "checks_fused",
            telemetry.counter("jit.checks.fused").to_string(),
        ),
        // Translation validation (only nonzero when LB_VERIFY is set):
        // sites the validator proved and anything it could not.
        (
            "verify_sites",
            telemetry.counter("verify.sites_checked").to_string(),
        ),
        (
            "verify_findings",
            telemetry.counter("verify.findings").to_string(),
        ),
        // Memory-lifecycle fast path: pool effectiveness and batched
        // uffd fault service over the run (pool.reset_us is the mean
        // reset latency in microseconds; 0 when nothing was recycled).
        ("pool.hit", telemetry.counter("pool.hit").to_string()),
        ("pool.miss", telemetry.counter("pool.miss").to_string()),
        (
            "pool.reset_us",
            format!(
                "{:.1}",
                telemetry
                    .histogram("pool.reset_us")
                    .map_or(0.0, |h| h.mean())
            ),
        ),
        (
            "uffd.batch_pages",
            telemetry.counter("uffd.batch_pages").to_string(),
        ),
        (
            "uffd.prefetch_streak",
            telemetry.counter("uffd.prefetch_streak").to_string(),
        ),
    ];
    row.extend(meta.into_iter().map(|(k, v)| (k as &str, v)));
    lb_telemetry::export::emit_run(&row, &telemetry);
    Ok(RunResult {
        checksum_ok,
        vm,
        telemetry,
        sys,
        effective_strategy,
        prof,
    })
}

/// What an isolate iteration instantiates.
#[derive(Clone, Copy)]
pub enum Isolate<'a> {
    /// A fresh state of a benchmark's native twin.
    Native(&'a NativeFactory),
    /// A fresh instance of a loaded module (benchmarks import nothing),
    /// with a fresh linear memory under the config.
    Wasm(&'a dyn LoadedModule, MemoryConfig),
}

impl Isolate<'_> {
    /// One isolate iteration, the unit every engine measurement times:
    /// instantiate, `init`, `kernel`, then tear down. With `checksum`,
    /// the checksum is read before the tear-down and returned.
    ///
    /// # Errors
    /// The stage that failed: instantiate, init, kernel or checksum.
    pub fn iteration(self, checksum: bool) -> Result<Option<f64>, RunFailure> {
        match self {
            Isolate::Native(native) => {
                let mut k = native();
                k.init();
                k.kernel();
                Ok(checksum.then(|| k.checksum()))
            }
            Isolate::Wasm(module, config) => {
                let mut inst = module
                    .instantiate(&config, &Linker::new())
                    .map_err(fail(RunStage::Instantiate))?;
                inst.invoke("init", &[]).map_err(fail(RunStage::Init))?;
                inst.invoke("kernel", &[]).map_err(fail(RunStage::Kernel))?;
                if !checksum {
                    return Ok(None);
                }
                let cs = inst
                    .invoke("checksum", &[])
                    .map_err(fail(RunStage::Checksum))?;
                Ok(Some(cs.and_then(|v| v.as_f64()).unwrap_or(f64::NAN)))
            }
        }
    }
}

/// A loaded module and the memory config its isolates run under.
type Loaded = (Arc<dyn LoadedModule>, MemoryConfig);

/// Load the module and resolve the run's memory config; `None` for the
/// native baseline.
fn load(bench: &Benchmark, spec: &RunSpec) -> Result<Option<Loaded>, RunFailure> {
    let Some(engine) = spec.engine.engine() else {
        return Ok(None);
    };
    let loaded = engine.load(&bench.module).map_err(fail(RunStage::Load))?;
    let requested = MemoryConfig {
        strategy: spec.strategy,
        initial_pages: 0,
        max_pages: spec.max_pages,
        reserve_bytes: spec.reserve_bytes,
    };
    // Resolve the effective strategy once per run with a throwaway probe
    // memory. If lb-core degrades (e.g. uffd setup fails in a container),
    // every isolate of this run then uses the *same* fallen-back strategy
    // instead of each iteration renegotiating — keeping the run's
    // isolates uniform and the JSONL row honest about what actually ran.
    let probe = LinearMemory::new(&requested).map_err(fail(RunStage::Probe))?;
    let config = MemoryConfig {
        strategy: probe.strategy(),
        ..requested
    };
    Ok(Some((loaded, config)))
}

/// Run `spec.iterations` isolate iterations, the last of which reads the
/// checksum, and return whether it matched `expected`. A panic becomes a
/// [`RunStage::Worker`] failure instead of unwinding into the campaign.
fn run_iterations(
    isolate: Isolate<'_>,
    spec: &RunSpec,
    expected: f64,
    deadline: Option<Instant>,
) -> Result<bool, RunFailure> {
    let iterations = || {
        let mut ok = true;
        for i in 1..=spec.iterations {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(RunFailure::new(
                    RunStage::Worker,
                    &"per-run timeout exceeded",
                ));
            }
            if let Some(cs) = isolate.iteration(i == spec.iterations)? {
                ok = lb_dsl::kernel::checksums_match(cs, expected);
            }
        }
        Ok(ok)
    };
    std::panic::catch_unwind(AssertUnwindSafe(iterations)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "no message".to_string());
        Err(RunFailure::new(
            RunStage::Worker,
            &format!("run panicked: {msg}"),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_polybench::{by_name, common::Dataset};
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that run an engine: a run's `vm` tallies are
    /// process-wide syscall deltas, which a sibling run would inflate.
    fn engine_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn quick_spec(engine: EngineSel) -> RunSpec {
        RunSpec {
            engine,
            strategy: BoundsStrategy::Mprotect,
            iterations: 3,
            reserve_bytes: 64 << 20,
            max_pages: 512,
            sample_system: false,
            timeout: Some(Duration::from_secs(120)),
            retries: 1,
        }
    }

    #[test]
    fn native_run_validates() {
        let _serial = engine_lock();
        let b = by_name("gemm", Dataset::Mini).unwrap();
        let r = run_benchmark(&b, &quick_spec(EngineSel::Native));
        assert!(r.checksum_ok);
    }

    #[test]
    fn wasm_run_instantiates_each_iteration_and_validates() {
        let _serial = engine_lock();
        let b = by_name("atax", Dataset::Mini).unwrap();
        for (e, histogram) in [
            (EngineSel::Interp, "interp.instantiate_ns"),
            (EngineSel::Wavm, "jit.instantiate_ns"),
        ] {
            let r = run_benchmark(&b, &quick_spec(e));
            assert!(r.checksum_ok, "{}", e.name());
            let instantiated = r.telemetry.histogram(histogram).map_or(0, |h| h.count);
            assert_eq!(instantiated, 3, "{}: one isolate per iteration", e.name());
            assert!(r.vm.mmap >= 3, "one reservation per isolate iteration");
            assert_eq!(r.effective_strategy, BoundsStrategy::Mprotect);
        }
    }

    #[test]
    fn mprotect_strategy_issues_mprotect_calls() {
        let _serial = engine_lock();
        let b = by_name("jacobi-1d", Dataset::Mini).unwrap();
        let mut spec = quick_spec(EngineSel::Wavm);
        spec.strategy = BoundsStrategy::Mprotect;
        let r1 = run_benchmark(&b, &spec);
        spec.strategy = BoundsStrategy::Trap;
        let r2 = run_benchmark(&b, &spec);
        assert!(
            r1.vm.mprotect > r2.vm.mprotect,
            "mprotect strategy must call mprotect more ({} vs {})",
            r1.vm.mprotect,
            r2.vm.mprotect
        );
    }

    #[test]
    fn panic_becomes_a_worker_failure() {
        let _serial = engine_lock();
        let gemm = by_name("gemm", Dataset::Mini).unwrap();
        // Call 1 computes the expected checksum, calls 2 and 3 are the
        // two iterations: the second iteration panics.
        let calls = AtomicU32::new(0);
        let native = gemm.native;
        let b = Benchmark::new(
            "panics",
            "polybench",
            gemm.module,
            Box::new(move || {
                assert!(calls.fetch_add(1, Ordering::Relaxed) < 2, "injected panic");
                native()
            }),
        );
        let mut spec = quick_spec(EngineSel::Native);
        spec.retries = 0;
        match run_benchmark_checked(&b, &spec) {
            RunOutcome::Failed(f) => {
                assert_eq!(f.stage, RunStage::Worker);
                assert!(f.error.contains("injected panic"), "{}", f.error);
            }
            RunOutcome::Completed(_) => panic!("a panicking iteration must fail the run"),
        }
    }

    #[test]
    fn tiny_timeout_fails_cleanly() {
        let _serial = engine_lock();
        let b = by_name("gemm", Dataset::Mini).unwrap();
        for e in [EngineSel::Native, EngineSel::Interp] {
            let mut spec = quick_spec(e);
            spec.timeout = Some(Duration::ZERO);
            spec.retries = 0;
            match run_benchmark_checked(&b, &spec) {
                RunOutcome::Failed(f) => {
                    assert_eq!(f.stage, RunStage::Worker, "{}", e.name());
                    assert!(f.error.contains("timeout"), "{}: {}", e.name(), f.error);
                }
                RunOutcome::Completed(_) => panic!("{}: zero timeout must fail", e.name()),
            }
        }
    }
}
