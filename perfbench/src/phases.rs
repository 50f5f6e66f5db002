//! The three measured phases — a cold-start pass, an exec round and a
//! serve window — and the correctness gates inside them. Every failed gate
//! returns an error, which ends the run without a result.

use crate::host::pin_to_cpu;
use crate::suite::{mem_config, Kernel, Workload, SERVE_EXPORT, STRATEGIES};
use crate::trace::{geomean, median, quantile, Tracer};
use lb_chaos::SplitMix64;
use lb_core::pool::{self, MemoryPoolConfig};
use lb_core::{BoundsStrategy, Engine, Instance, LinearMemory, Linker};
use lb_jit::codegen::{compile_function, CompileParams};
use lb_jit::JitProfile;
use lb_serve::{KernelSpec, Outcome, ServeConfig, Server, TenantQuota, Ticket};
use lb_telemetry::clock::now_ns;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arms of an exec sample: index 0 is native, `1 + i` is `STRATEGIES[i]`.
pub const ARMS: usize = 1 + STRATEGIES.len();

/// Shortest timed span of one exec sample.
const SAMPLE_NS: u64 = 1_000_000;

/// Traced exec samples per module and arm (bounds the spans kept in
/// memory).
const TRACED_SAMPLES: usize = 10;

/// Requests outstanding in the closed loop.
const CLOSED_WINDOW: usize = 4;

/// The open-loop generator fell behind in a window when its p99 lag
/// exceeds this share of the interval between sends.
const MAX_LAG_SHARE: f64 = 0.25;

/// CPU of the single shard worker (lb-serve pins shard `i` to CPU `i`),
/// and of the harness while it runs cold starts and exec rounds, so the
/// native runs of the exec rounds time the CPU that serves requests.
pub const WORKER_CPU: usize = 0;

/// CPU of the harness while it is the serve window's load generator.
pub const GENERATOR_CPU: usize = 1;

/// Operations attempted and failed in one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that did not produce a correct result.
    pub failed: u64,
}

/// Counts a module's analysis plan and code generation must repeat
/// exactly on every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleCounts {
    /// Bounds-check sites: (elided, emitted, hoisted).
    pub sites: (u64, u64, u64),
    /// Machine-code bytes compiled under trap.
    pub code_bytes: u64,
}

/// One serve window, reduced to quantiles as soon as it ends.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Closed-loop completions per second.
    pub capacity_rps: f64,
    /// Whether the open-loop generator kept to its schedule; the open-loop
    /// figures of a window where it did not are not reported.
    pub on_schedule: bool,
    /// Open-loop latency from due time to completion, µs: p50, p90, p99
    /// (infinite when the quantile lands on a failed request).
    pub latency_us: [f64; 3],
    /// Queue time of completed open-loop requests, µs: p50, p90.
    pub queue_us: [f64; 2],
    /// Run time of completed open-loop requests, µs: p50, p90.
    pub run_us: [f64; 2],
    /// Send time minus due time, µs: p50, p99.
    pub lag_us: [f64; 2],
}

/// Everything the phases measured, before it is reduced to metrics.
#[derive(Default)]
pub struct Results {
    /// Per untraced cold-start pass: ms per module.
    pub cold_passes: Vec<Vec<f64>>,
    /// Per traced round: (untraced pass total, traced pass total), ms.
    pub cold_pairs: Vec<(f64, f64)>,
    /// Per module: static counts from its first traced cold start.
    pub counts: Vec<Option<ModuleCounts>>,
    /// Per module and arm: ns per iteration of each untraced sample.
    pub exec: Vec<[Vec<f64>; ARMS]>,
    /// Per round: geomean over modules of the round's median native
    /// iteration, ns — the host's speed in that round.
    pub native_rounds: Vec<f64>,
    /// Per module and arm: ns per iteration of each traced sample.
    pub exec_traced: Vec<[Vec<f64>; ARMS]>,
    /// Per arm: iterations, and memory-subsystem syscalls they made.
    pub arm_iters: [u64; ARMS],
    /// Per arm: mmap + munmap + mprotect + uffd register/zeropage calls.
    pub arm_syscalls: [u64; ARMS],
    /// Pages zero-filled by uffd fault service in the uffd arm.
    pub uffd_pages: u64,
    /// One summary per serve window.
    pub windows: Vec<Window>,
    /// Instance-pool hits and misses while serving.
    pub pool_hits: u64,
    /// See `pool_hits`.
    pub pool_misses: u64,
    /// Cold start, exec and serve operations.
    pub ops: [Ops; 3],
}

/// The state shared by the phases of one run.
pub struct Bench<'a> {
    kernels: &'a [Kernel],
    workload: Workload,
    rng: SplitMix64,
    /// Whether this is a traced run.
    traced: bool,
    /// The span recorder (recording only while a traced phase runs).
    pub tr: Tracer,
    linker: Linker,
    deck: Vec<usize>,
    sample_seq: u64,
    /// What the phases measured.
    pub res: Results,
}

fn check_strategy(inst: &dyn Instance, want: BoundsStrategy, name: &str) -> Result<(), String> {
    let got = inst
        .memory()
        .map(LinearMemory::strategy)
        .ok_or_else(|| format!("{name}: instance has no memory"))?;
    if got != want {
        return Err(format!(
            "{name}: requested {} but the memory runs {}",
            want.name(),
            got.name()
        ));
    }
    Ok(())
}

fn check_checksum(k: &Kernel, got: Option<lb_wasm::Value>, what: &str) -> Result<(), String> {
    let got = got.and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
    if !lb_dsl::kernel::checksums_match(got, k.expected) {
        return Err(format!(
            "{}: {what} checksum {got} differs from native {}",
            k.name, k.expected
        ));
    }
    Ok(())
}

fn set_pool(capacity: usize) {
    pool::drain();
    pool::configure(MemoryPoolConfig {
        capacity,
        verify_zero: false,
    });
}

/// Every defined function of `m` compiled as the measured profile's
/// load-time tier does under trap; returns the machine-code bytes.
fn compile_all(
    m: &lb_wasm::Module,
    meta: &lb_wasm::ModuleMeta,
    plan: &lb_analysis::ModulePlan,
) -> u64 {
    let profile = JitProfile::wavm();
    let funcptrs = lb_jit::runtime::FuncPtrs::new(m.num_funcs() as usize);
    let extents = lb_jit::dataflow::module_extents(m);
    let params = CompileParams {
        module: m,
        metas: &meta.funcs,
        strategy: BoundsStrategy::Trap,
        opt: profile.opt,
        safepoints: profile.safepoints,
        funcptrs_base: funcptrs.base_addr(),
        plans: Some(plan),
        guardopt: profile.guardopt,
        limit_extents: &extents,
    };
    (0..m.functions.len())
        .map(|di| compile_function(params, di).len() as u64)
        .sum()
}

impl<'a> Bench<'a> {
    /// Phases over `kernels`, seeded by `seed`.
    pub fn new(kernels: &'a [Kernel], workload: Workload, seed: u64, traced: bool) -> Bench<'a> {
        let res = Results {
            exec: (0..kernels.len()).map(|_| Default::default()).collect(),
            exec_traced: (0..kernels.len()).map(|_| Default::default()).collect(),
            counts: vec![None; kernels.len()],
            ..Default::default()
        };
        Bench {
            kernels,
            workload,
            rng: SplitMix64::new(seed),
            traced,
            tr: Tracer::new(),
            linker: Linker::new(),
            deck: Vec::new(),
            sample_seq: 0,
            res,
        }
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }

    /// The next served module: every module once per deck, in seeded
    /// order, so each seed serves the same mix.
    fn next_module(&mut self) -> usize {
        if self.deck.is_empty() {
            self.deck = self.shuffled(self.kernels.len());
        }
        self.deck.pop().unwrap_or(0)
    }

    // ── cold start ────────────────────────────────────────────────────

    /// One module in a fresh engine: bytes → decode → load (validate +
    /// analysis) → first instantiate under trap (codegen) → init, kernel,
    /// checksum. Returns ms; teardown is not timed.
    fn cold_untraced(&mut self, mi: usize) -> Result<f64, String> {
        let kernels = self.kernels;
        let k = &kernels[mi];
        let cfg = mem_config(BoundsStrategy::Trap);
        let t0 = Instant::now();
        let engine = crate::suite::engine();
        let m = lb_wasm::binary::decode::decode(&k.bytes)
            .map_err(|e| format!("{}: decode: {e}", k.name))?;
        let loaded = engine
            .load(&m)
            .map_err(|e| format!("{}: load: {e}", k.name))?;
        let mut inst = loaded
            .instantiate(&cfg, &self.linker)
            .map_err(|e| format!("{}: instantiate: {e}", k.name))?;
        inst.invoke("init", &[])
            .map_err(|e| format!("{}: init: {e}", k.name))?;
        inst.invoke("kernel", &[])
            .map_err(|e| format!("{}: kernel: {e}", k.name))?;
        let cs = inst
            .invoke("checksum", &[])
            .map_err(|e| format!("{}: checksum: {e}", k.name))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        check_strategy(&*inst, BoundsStrategy::Trap, &k.name)?;
        check_checksum(k, cs, "cold-start")?;
        Ok(ms)
    }

    /// The same path with each stage called on its own inside a span:
    /// decode, validate, analysis and codegen on the module's bytes, then
    /// instantiate, init, kernel and checksum on the already-compiled
    /// module. Records the plan's site counts and the code size.
    fn cold_traced(&mut self, pass: usize, mi: usize) -> Result<(), String> {
        let kernels = self.kernels;
        let k = &kernels[mi];
        let req = ((pass as u64) << 16) | mi as u64;
        let tr = &mut self.tr;
        let root = tr.open("coldstart", req);
        let s = tr.open("wasm.decode", req);
        let m = lb_wasm::binary::decode::decode(&k.bytes)
            .map_err(|e| format!("{}: decode: {e}", k.name))?;
        tr.close(s);
        let s = tr.open("wasm.validate", req);
        let meta = lb_wasm::validate(&m).map_err(|e| format!("{}: validate: {e}", k.name))?;
        tr.close(s);
        let s = tr.open("analysis", req);
        let cfg = lb_analysis::AnalysisConfig {
            interprocedural: true,
            hoist: JitProfile::wavm().hoisting,
        };
        let plan = lb_analysis::analyze_module_with(&m, &meta, &cfg);
        tr.close(s);
        let s = tr.open("jit.compile", req);
        let bytes = compile_all(&m, &meta, &plan);
        tr.close(s);
        let s = tr.open("cold.instantiate", req);
        let mut inst = k
            .loaded
            .instantiate(&mem_config(BoundsStrategy::Trap), &self.linker)
            .map_err(|e| format!("{}: instantiate: {e}", k.name))?;
        tr.close(s);
        let s = tr.open("cold.init", req);
        inst.invoke("init", &[])
            .map_err(|e| format!("{}: init: {e}", k.name))?;
        tr.close(s);
        let s = tr.open("cold.kernel", req);
        inst.invoke("kernel", &[])
            .map_err(|e| format!("{}: kernel: {e}", k.name))?;
        tr.close(s);
        let s = tr.open("cold.checksum", req);
        let cs = inst
            .invoke("checksum", &[])
            .map_err(|e| format!("{}: checksum: {e}", k.name))?;
        tr.close(s);
        tr.close(root);
        check_checksum(k, cs, "traced cold-start")?;
        drop(inst);

        // Counts from the plan and the compiler must repeat exactly.
        let (_, elided, emitted, _) = plan.totals();
        let counts = ModuleCounts {
            sites: (elided, emitted, plan.total_hoisted()),
            code_bytes: bytes,
        };
        match self.res.counts[mi] {
            None => self.res.counts[mi] = Some(counts),
            Some(first) if first != counts => {
                return Err(format!(
                    "{}: static counts changed between passes: {first:?} then {counts:?}",
                    k.name
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// One cold-start pass over every module in seeded order (and, in a
    /// traced run, one traced pass in the same order, the two passes in
    /// seeded order).
    pub fn cold_pass(&mut self, pass: usize) -> Result<(), String> {
        set_pool(0);
        let order = self.shuffled(self.kernels.len());
        let traced_first = self.traced && self.rng.below(2) == 0;
        let mut traced_ms = 0.0;
        if traced_first {
            traced_ms = self.traced_pass(pass, &order)?;
        }
        let mut samples = vec![0.0; order.len()];
        for &mi in &order {
            self.res.ops[0].attempted += 1;
            samples[mi] = self.cold_untraced(mi)?;
        }
        let total = samples.iter().sum();
        self.res.cold_passes.push(samples);
        if self.traced && !traced_first {
            traced_ms = self.traced_pass(pass, &order)?;
        }
        if self.traced {
            self.res.cold_pairs.push((total, traced_ms));
        }
        Ok(())
    }

    fn traced_pass(&mut self, pass: usize, order: &[usize]) -> Result<f64, String> {
        self.tr.set_recording(true);
        let first = self.tr.len();
        for &mi in order {
            self.res.ops[0].attempted += 1;
            self.cold_traced(pass, mi)?;
        }
        self.tr.set_recording(false);
        Ok(self.tr.stage_sum_ms(first, "coldstart"))
    }

    // ── exec ─────────────────────────────────────────────────────────

    /// `reps` exec rounds; records their native speed.
    pub fn exec_rounds(&mut self, reps: usize) -> Result<(), String> {
        let first: Vec<usize> = self.res.exec.iter().map(|by_arm| by_arm[0].len()).collect();
        for _ in 0..reps {
            self.exec_round()?;
        }
        let natives: Vec<f64> = self
            .res
            .exec
            .iter()
            .zip(first)
            .map(|(by_arm, i)| median(&by_arm[0][i..]))
            .collect();
        self.res.native_rounds.push(geomean(&natives));
        Ok(())
    }

    /// One exec round: every module in seeded order, its arms in seeded
    /// order, one sample each. In a traced run the first
    /// `TRACED_SAMPLES` samples of each module and arm are paired with a
    /// traced sample, the two in seeded order.
    fn exec_round(&mut self) -> Result<(), String> {
        set_pool(0);
        for mi in self.shuffled(self.kernels.len()) {
            for arm in self.shuffled(ARMS) {
                let traced = self.traced && self.res.exec_traced[mi][arm].len() < TRACED_SAMPLES;
                let traced_first = traced && self.rng.below(2) == 0;
                if traced_first {
                    self.sample(mi, arm, true)?;
                }
                self.sample(mi, arm, false)?;
                if traced && !traced_first {
                    self.sample(mi, arm, true)?;
                }
            }
        }
        Ok(())
    }

    /// Iterations of one arm until at least `SAMPLE_NS` are timed; records
    /// ns per iteration and the memory-subsystem calls made.
    fn sample(&mut self, mi: usize, arm: usize, traced: bool) -> Result<(), String> {
        self.tr.set_recording(traced);
        let req = (self.sample_seq << 32) | ((mi as u64) << 8) | arm as u64;
        self.sample_seq += 1;
        let vm0 = lb_core::stats::snapshot();
        let pages = lb_telemetry::counter("uffd.batch_pages");
        let pages0 = pages.get();
        let (ns, n) = if arm == 0 {
            self.native_sample(mi, req)?
        } else {
            self.wasm_sample(mi, STRATEGIES[arm - 1], req)?
        };
        self.tr.set_recording(false);
        let vm = lb_core::stats::snapshot().delta(&vm0);
        self.res.arm_iters[arm] += n;
        self.res.arm_syscalls[arm] +=
            vm.mmap + vm.munmap + vm.mprotect + vm.uffd_register + vm.uffd_zeropage;
        if arm > 0 && STRATEGIES[arm - 1] == BoundsStrategy::Uffd {
            self.res.uffd_pages += pages.get() - pages0;
        }
        self.res.ops[1].attempted += n;
        let per_iter = ns as f64 / n as f64;
        if traced {
            self.res.exec_traced[mi][arm].push(per_iter);
        } else {
            self.res.exec[mi][arm].push(per_iter);
        }
        Ok(())
    }

    /// Native iterations: factory + init + kernel, timed; the checksum of
    /// the last one is checked.
    fn native_sample(&mut self, mi: usize, req: u64) -> Result<(u64, u64), String> {
        let kernels = self.kernels;
        let k = &kernels[mi];
        let tr = &mut self.tr;
        let (mut timed, mut n) = (0u64, 0u64);
        loop {
            let it = tr.open("exec.iter", req);
            let t0 = Instant::now();
            let s = tr.open("native.init", req);
            let mut twin = (k.native)();
            twin.init();
            tr.close(s);
            let s = tr.open("native.kernel", req);
            twin.kernel();
            tr.close(s);
            timed += t0.elapsed().as_nanos() as u64;
            tr.close(it);
            n += 1;
            if timed >= SAMPLE_NS {
                let cs = std::hint::black_box(twin.checksum());
                if cs.to_bits() != k.expected.to_bits() {
                    return Err(format!(
                        "{}: native checksum {cs} differs from set-up's {}",
                        k.name, k.expected
                    ));
                }
                return Ok((timed, n));
            }
        }
    }

    /// Wasm iterations as lb-harness times them: instantiate (pool off) +
    /// init + kernel, timed; teardown untimed. The strategy is checked on
    /// the first iteration, the checksum on the last.
    fn wasm_sample(
        &mut self,
        mi: usize,
        strategy: BoundsStrategy,
        req: u64,
    ) -> Result<(u64, u64), String> {
        let kernels = self.kernels;
        let k = &kernels[mi];
        let cfg = mem_config(strategy);
        let tr = &mut self.tr;
        let (mut timed, mut n) = (0u64, 0u64);
        loop {
            let it = tr.open("exec.iter", req);
            let t0 = Instant::now();
            let s = tr.open("core.instantiate", req);
            let mut inst = k
                .loaded
                .instantiate(&cfg, &self.linker)
                .map_err(|e| format!("{}: instantiate: {e}", k.name))?;
            tr.close(s);
            let s = tr.open("exec.init", req);
            inst.invoke("init", &[])
                .map_err(|e| format!("{}: init: {e}", k.name))?;
            tr.close(s);
            let s = tr.open("exec.kernel", req);
            inst.invoke("kernel", &[])
                .map_err(|e| format!("{}: kernel: {e}", k.name))?;
            tr.close(s);
            timed += t0.elapsed().as_nanos() as u64;
            tr.close(it);
            n += 1;
            if n == 1 {
                check_strategy(&*inst, strategy, &k.name)?;
            }
            let last = timed >= SAMPLE_NS;
            if last {
                let s = tr.open("exec.checksum", req);
                let cs = inst
                    .invoke("checksum", &[])
                    .map_err(|e| format!("{}: checksum: {e}", k.name))?;
                tr.close(s);
                check_checksum(k, cs, strategy.name())?;
            }
            let s = tr.open("core.teardown", req);
            drop(inst);
            tr.close(s);
            if last {
                return Ok((timed, n));
            }
        }
    }

    // ── serve ────────────────────────────────────────────────────────

    /// One serve window: a pooled uffd server with one pinned shard
    /// worker; a closed loop measures capacity, then an open loop at the
    /// workload's fixed rate measures latency. The calling thread is the
    /// load generator, on `GENERATOR_CPU` for the window.
    pub fn serve_window(&mut self) -> Result<(), String> {
        pin_to_cpu(GENERATOR_CPU);
        set_pool(16);
        let probe = LinearMemory::new(&mem_config(BoundsStrategy::Uffd))
            .map_err(|e| format!("serve: uffd memory: {e}"))?;
        if probe.strategy() != BoundsStrategy::Uffd {
            return Err(format!(
                "serve: requested uffd but the memory runs {}",
                probe.strategy().name()
            ));
        }
        drop(probe);
        let specs = self
            .kernels
            .iter()
            .map(|k| KernelSpec {
                name: k.name.clone(),
                module: Arc::clone(&k.loaded),
                entry: SERVE_EXPORT.into(),
                args: vec![],
            })
            .collect();
        let cfg = ServeConfig {
            shards: 1,
            queue_depth: 4096,
            max_inflight: 1 << 16,
            tenants: vec![TenantQuota::Unlimited],
            default_deadline: Duration::from_secs(1),
            pin_workers: true,
            ..ServeConfig::default()
        };
        let awake = crate::host::KeepAwake::start(WORKER_CPU)?;
        let counters = ServeCounters::read();
        let server = Server::start(cfg, specs, mem_config(BoundsStrategy::Uffd), Linker::new());
        let submitted = self.drive(&server);
        server.shutdown();
        drop(awake);
        let d = ServeCounters::read().since(&counters);
        set_pool(0);
        pin_to_cpu(WORKER_CPU);
        if d.double_complete != 0 {
            return Err(format!("serve: {} double completions", d.double_complete));
        }
        if d.admitted != d.completed + d.failed + d.shed {
            return Err(format!(
                "serve: {} admitted but {} completed + {} failed + {} shed",
                d.admitted, d.completed, d.failed, d.shed
            ));
        }
        if d.admitted + d.rejected != submitted {
            return Err(format!(
                "serve: {submitted} submitted but {} admitted + {} rejected",
                d.admitted, d.rejected
            ));
        }
        self.res.pool_hits += d.pool_hits;
        self.res.pool_misses += d.pool_misses;
        Ok(())
    }

    fn resolve(&mut self, t: &Ticket) -> Option<(u64, u64)> {
        match t.wait() {
            Outcome::Completed { queue_ns, run_ns } => Some((queue_ns, run_ns)),
            Outcome::Failed { .. } | Outcome::Shed { .. } => {
                self.res.ops[2].failed += 1;
                None
            }
        }
    }

    /// Warm-up, closed loop, open loop. Returns requests submitted.
    fn drive(&mut self, server: &Server) -> u64 {
        let (closed_decks, open_decks) = self.workload.serve_decks();
        let n_kernels = self.kernels.len();
        let attempted0 = self.res.ops[2].attempted;
        self.deck.clear();

        // Warm-up: every module once, so the pool and caches are filled
        // before anything is timed.
        for _ in 0..n_kernels {
            if let Some(t) = self.submit(server) {
                self.resolve(&t);
            }
        }

        // Closed loop: `CLOSED_WINDOW` requests outstanding until the
        // window's decks are all served.
        let mut window: VecDeque<Ticket> = VecDeque::new();
        let mut to_send = closed_decks * n_kernels;
        let mut completed = 0u64;
        let t0 = Instant::now();
        loop {
            while window.len() < CLOSED_WINDOW && to_send > 0 {
                to_send -= 1;
                if let Some(t) = self.submit(server) {
                    window.push_back(t);
                }
            }
            let Some(t) = window.pop_front() else {
                break;
            };
            if self.resolve(&t).is_some() {
                completed += 1;
            }
        }
        let capacity_rps = completed as f64 / t0.elapsed().as_secs_f64();

        // Open loop: request i is due at start + i / rate. The generator
        // spins on its own CPU until then, polling the outstanding tickets
        // as it spins, so a request completes when the generator first
        // sees its outcome: after the worker has torn the instance down,
        // returned its memory to the pool and published the outcome.
        let rate = self.workload.serve_rate();
        let n = (open_decks * n_kernels) as u64;
        let start = now_ns() + 1_000_000;
        let mut open = OpenLoop::with_capacity(n as usize);
        let mut lag = Vec::with_capacity(n as usize);
        let first_req = self.res.ops[2].attempted;
        self.tr.set_recording(self.traced);
        for i in 0..n {
            let due = start + (i as f64 * 1e9 / rate) as u64;
            while now_ns() < due {
                open.poll();
                std::hint::spin_loop();
            }
            let sent = now_ns();
            let s = self.tr.open("serve.submit", first_req + i);
            let ticket = self.submit(server);
            self.tr.close(s);
            lag.push((sent - due) as f64);
            match ticket {
                Some(t) => open.pending.push((t, due)),
                None => open.latency.push(f64::INFINITY),
            }
        }
        self.tr.set_recording(false);
        while !open.pending.is_empty() {
            open.poll();
            std::hint::spin_loop();
        }
        self.res.ops[2].failed += open.failed;
        let lag_p99 = quantile(&lag, 0.99);
        let latency = &open.latency;
        self.res.windows.push(Window {
            capacity_rps,
            on_schedule: lag_p99 <= MAX_LAG_SHARE * 1e9 / rate,
            latency_us: [
                median(latency),
                quantile(latency, 0.9),
                quantile(latency, 0.99),
            ],
            queue_us: [median(&open.queue), quantile(&open.queue, 0.9)],
            run_us: [median(&open.run), quantile(&open.run, 0.9)],
            lag_us: [median(&lag) / 1e3, lag_p99 / 1e3],
        });
        self.res.ops[2].attempted - attempted0
    }

    /// Submit one request for the next module of the deck; a refusal
    /// counts as a failure.
    fn submit(&mut self, server: &Server) -> Option<Ticket> {
        self.res.ops[2].attempted += 1;
        let mi = self.next_module();
        let r = server.submit(0, mi, None);
        if r.is_err() {
            self.res.ops[2].failed += 1;
        }
        r.ok()
    }
}

/// The open loop's outstanding requests and what the resolved ones
/// measured, in µs.
struct OpenLoop {
    /// Admitted requests not yet seen resolved, with their due times.
    pending: Vec<(Ticket, u64)>,
    /// Due time to completion; infinite for a refused, shed or failed
    /// request.
    latency: Vec<f64>,
    /// Queue time of completed requests.
    queue: Vec<f64>,
    /// Run time of completed requests.
    run: Vec<f64>,
    /// Requests shed or failed.
    failed: u64,
}

impl OpenLoop {
    fn with_capacity(n: usize) -> OpenLoop {
        OpenLoop {
            pending: Vec::with_capacity(n),
            latency: Vec::with_capacity(n),
            queue: Vec::with_capacity(n),
            run: Vec::with_capacity(n),
            failed: 0,
        }
    }

    /// Stamp every outstanding request whose outcome is now published.
    fn poll(&mut self) {
        let OpenLoop {
            pending,
            latency,
            queue,
            run,
            failed,
        } = self;
        pending.retain(|(t, due)| {
            let Some(outcome) = t.try_outcome() else {
                return true;
            };
            let done = now_ns();
            match outcome {
                Outcome::Completed { queue_ns, run_ns } => {
                    latency.push(done.saturating_sub(*due) as f64 / 1e3);
                    queue.push(queue_ns as f64 / 1e3);
                    run.push(run_ns as f64 / 1e3);
                }
                Outcome::Failed { .. } | Outcome::Shed { .. } => {
                    latency.push(f64::INFINITY);
                    *failed += 1;
                }
            }
            false
        });
    }
}

/// Serving counters from the telemetry registry, read around a window.
struct ServeCounters {
    admitted: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    rejected: u64,
    double_complete: u64,
    pool_hits: u64,
    pool_misses: u64,
}

impl ServeCounters {
    fn read() -> ServeCounters {
        let c = |name| lb_telemetry::counter(name).get();
        ServeCounters {
            admitted: c("serve.admitted"),
            completed: c("serve.completed"),
            failed: c("serve.failed"),
            shed: c("serve.shed"),
            rejected: c("serve.rejected"),
            double_complete: c("serve.double_complete"),
            pool_hits: c("pool.hit"),
            pool_misses: c("pool.miss"),
        }
    }

    fn since(&self, before: &ServeCounters) -> ServeCounters {
        ServeCounters {
            admitted: self.admitted - before.admitted,
            completed: self.completed - before.completed,
            failed: self.failed - before.failed,
            shed: self.shed - before.shed,
            rejected: self.rejected - before.rejected,
            double_complete: self.double_complete - before.double_complete,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
        }
    }
}
