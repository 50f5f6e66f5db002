//! lb-serve: a multi-tenant instance server over the instance pool.
//!
//! The paper's scaling experiment (Fig. 6) shows bounds-check strategy
//! costs invert under concurrency; this crate drives the pooled ~5 µs
//! instantiation path like production traffic so those costs — and the
//! serving layer's own overload behaviour — can be measured instead of
//! assumed. A request is admitted, queued, run and resolved:
//!
//! - **Admission control**: a global in-flight cap and bounded per-shard
//!   queues. Overload rejects with a typed [`Overload`] error; nothing
//!   queues unboundedly.
//! - **Deadlines**: every admitted request carries an absolute deadline,
//!   checked when a worker dequeues it. A request that expired while
//!   queued is shed without running; a run is never preempted.
//! - **Graceful degradation**: pool miss → fresh-mmap slow path →
//!   load-shed with [`ShedReason::Capacity`] plus a pool drain for
//!   relief. The server never aborts under resource exhaustion or
//!   injected faults.
//!
//! The core invariant, asserted by the chaos-under-load campaign: every
//! *admitted* request resolves to **exactly one** of
//! Completed / Failed / Shed. [`ticket::Slot`]'s CAS state machine makes
//! double completion structurally impossible and counts any attempt in
//! `serve.double_complete`.
//!
//! Chaos sites `serve.dispatch` and `serve.queue_full` make the serving
//! layer a fault-injection target alongside the mmap/mprotect/uffd
//! sites.

mod shard;
pub mod ticket;

pub use ticket::{FailStage, Outcome, ShedReason, Ticket};

use lb_core::{Linker, LoadedModule, MemoryConfig};
use lb_telemetry::clock::now_ns;
use lb_telemetry::{counter, histogram, Counter, Histogram};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ticket::Slot;

/// Sentinel for "no deadline".
const NO_DEADLINE: u64 = u64::MAX;

/// Typed admission rejection: the request was **not** admitted and owns
/// no ticket. Counted under `serve.rejected` (+ per-reason counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overload {
    /// Global in-flight cap reached or the home shard's queue was full;
    /// retry later.
    QueueFull,
    /// The server is shutting down.
    ShuttingDown,
    /// Unknown tenant id.
    UnknownTenant,
    /// Unknown kernel index.
    UnknownKernel,
}

impl Overload {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Overload::QueueFull => "queue_full",
            Overload::ShuttingDown => "shutdown",
            Overload::UnknownTenant => "unknown_tenant",
            Overload::UnknownKernel => "unknown_kernel",
        }
    }
}

impl std::fmt::Display for Overload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Overload::QueueFull => write!(f, "overloaded: queues full"),
            Overload::ShuttingDown => write!(f, "server shutting down"),
            Overload::UnknownTenant => write!(f, "unknown tenant"),
            Overload::UnknownKernel => write!(f, "unknown kernel"),
        }
    }
}

impl std::error::Error for Overload {}

/// One tenant entry of [`ServeConfig::tenants`]. Tenants carry no
/// per-tenant limit; the entry only counts the tenant.
#[derive(Debug, Clone, Copy)]
pub enum TenantQuota {
    /// The only kind of tenant: limited only by the global caps.
    Unlimited,
}

/// A kernel the server can invoke: a loaded module plus the export to
/// call on each request.
pub struct KernelSpec {
    /// Report name.
    pub name: String,
    /// The loaded (validated/compiled) module, shared across shards.
    pub module: Arc<dyn LoadedModule>,
    /// Exported function invoked per request.
    pub entry: String,
    /// Arguments passed to the entry point.
    pub args: Vec<lb_wasm::Value>,
}

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (each a pinned thread + bounded queue).
    pub shards: usize,
    /// Bounded queue depth per shard.
    pub queue_depth: usize,
    /// Global cap on admitted-but-unresolved requests.
    pub max_inflight: usize,
    /// One entry per tenant; the vector length is the tenant count.
    pub tenants: Vec<TenantQuota>,
    /// Default deadline applied when `submit` passes `None`.
    /// `Duration::ZERO` disables deadlines by default.
    pub default_deadline: Duration,
    /// Pin each shard worker to a CPU (`shard index % cpu count`).
    pub pin_workers: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 2,
            queue_depth: 64,
            max_inflight: 256,
            tenants: vec![TenantQuota::Unlimited; 4],
            default_deadline: Duration::from_millis(1000),
            pin_workers: false,
        }
    }
}

/// Telemetry handles, registered once (counter registration takes a
/// lock; the hot path must not).
pub(crate) struct Metrics {
    pub(crate) admitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) failed: Counter,
    pub(crate) shed: Counter,
    pub(crate) rejected: Counter,
    pub(crate) rejected_queue_full: Counter,
    pub(crate) rejected_shutdown: Counter,
    pub(crate) rejected_unknown: Counter,
    pub(crate) double_complete: Counter,
    pub(crate) pool_relief: Counter,
    pub(crate) latency_ns: Histogram,
    pub(crate) queue_ns: Histogram,
    pub(crate) run_ns: Histogram,
}

pub(crate) fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        admitted: counter("serve.admitted"),
        completed: counter("serve.completed"),
        failed: counter("serve.failed"),
        shed: counter("serve.shed"),
        rejected: counter("serve.rejected"),
        rejected_queue_full: counter("serve.rejected.queue_full"),
        rejected_shutdown: counter("serve.rejected.shutdown"),
        rejected_unknown: counter("serve.rejected.unknown"),
        double_complete: counter("serve.double_complete"),
        pool_relief: counter("serve.pool.relief"),
        latency_ns: histogram("serve.latency_ns"),
        queue_ns: histogram("serve.queue_ns"),
        run_ns: histogram("serve.run_ns"),
    })
}

/// State shared between the submit path and the shard workers.
pub(crate) struct ServerInner {
    pub(crate) kernels: Vec<KernelSpec>,
    pub(crate) memory: MemoryConfig,
    pub(crate) linker: Linker,
    pub(crate) pin_workers: bool,
    /// Set during shed-mode shutdown: workers resolve queued slots as
    /// `Shed { Shutdown }` instead of executing them.
    pub(crate) shed_queued: AtomicBool,
    /// Set once all in-flight work has resolved; workers exit on their
    /// next queue-poll timeout.
    pub(crate) stop_workers: AtomicBool,
    accepting: AtomicBool,
    inflight: Arc<AtomicUsize>,
    max_inflight: usize,
    tenants: usize,
    /// Each shard's bounded queue.
    shards: Vec<SyncSender<Arc<Slot>>>,
    default_deadline_ns: u64,
}

/// The multi-tenant instance server. See the crate docs for the model.
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start the server: spawn one worker per shard.
    pub fn start(
        config: ServeConfig,
        kernels: Vec<KernelSpec>,
        memory: MemoryConfig,
        linker: Linker,
    ) -> Server {
        metrics(); // register counters before any worker races the lock
        let default_deadline_ns = if config.default_deadline.is_zero() {
            NO_DEADLINE
        } else {
            config.default_deadline.as_nanos() as u64
        };

        let nshards = config.shards.max(1);
        let mut shards = Vec::with_capacity(nshards);
        let mut receivers = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (tx, rx) = sync_channel(config.queue_depth.max(1));
            shards.push(tx);
            receivers.push(rx);
        }

        let inner = Arc::new(ServerInner {
            kernels,
            memory,
            linker,
            pin_workers: config.pin_workers,
            shed_queued: AtomicBool::new(false),
            stop_workers: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            inflight: Arc::new(AtomicUsize::new(0)),
            max_inflight: config.max_inflight.max(1),
            tenants: config.tenants.len(),
            shards,
            default_deadline_ns,
        });

        let mut workers = Vec::with_capacity(nshards);
        for (idx, rx) in receivers.into_iter().enumerate() {
            let inner_cl = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("lb-serve-shard-{idx}"))
                    .spawn(move || shard::worker_loop(inner_cl, rx, idx))
                    .unwrap_or_else(|e| panic!("spawn shard worker: {e}")),
            );
        }

        Server { inner, workers }
    }

    /// Submit "invoke kernel `kernel` as tenant `tenant`". On admission
    /// the returned [`Ticket`] resolves to exactly one [`Outcome`]; a
    /// rejected request owns nothing and is safe to retry.
    ///
    /// `deadline` overrides the configured default; `Some(ZERO)` is the
    /// always-expired edge case (admitted, then shed, never run).
    ///
    /// # Errors
    /// A typed [`Overload`] rejection.
    pub fn submit(
        &self,
        tenant: u32,
        kernel: usize,
        deadline: Option<Duration>,
    ) -> Result<Ticket, Overload> {
        let inner = &self.inner;
        let m = metrics();
        if !inner.accepting.load(Ordering::SeqCst) {
            return Err(reject(m, Overload::ShuttingDown));
        }
        if kernel >= inner.kernels.len() {
            return Err(reject(m, Overload::UnknownKernel));
        }
        if tenant as usize >= inner.tenants {
            return Err(reject(m, Overload::UnknownTenant));
        }

        // Claim an in-flight slot *before* re-checking the shutdown flag:
        // shutdown sets the flag and then waits for inflight to reach
        // zero, so this order guarantees an admitted request is always
        // waited for (no lost tickets).
        if inner.inflight.fetch_add(1, Ordering::SeqCst) >= inner.max_inflight {
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(reject(m, Overload::QueueFull));
        }
        if !inner.accepting.load(Ordering::SeqCst) {
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(reject(m, Overload::ShuttingDown));
        }

        // Forced-overload chaos knob: drills the rejection path without
        // needing real queue pressure.
        if lb_chaos::inject("serve.queue_full").is_some() {
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(reject(m, Overload::QueueFull));
        }

        let now = now_ns();
        let deadline_ns = match deadline {
            Some(d) => now.saturating_add(d.as_nanos() as u64),
            None if inner.default_deadline_ns == NO_DEADLINE => NO_DEADLINE,
            None => now.saturating_add(inner.default_deadline_ns),
        };

        // Tenant-affinity routing: a tenant's traffic lands on its home
        // shard so a noisy tenant saturates one queue, not all of them.
        // A *full* queue rejects immediately — spilling a noisy tenant's
        // backlog onto healthy shards would defeat the isolation.
        let home = (tenant as usize)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(kernel)
            % inner.shards.len();
        let slot = Slot::new(
            tenant,
            kernel,
            home,
            now,
            deadline_ns,
            Arc::clone(&inner.inflight),
        );
        match inner.shards[home].try_send(Arc::clone(&slot)) {
            Ok(()) => {
                m.admitted.inc();
                Ok(Ticket { slot })
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                inner.inflight.fetch_sub(1, Ordering::SeqCst);
                Err(reject(m, Overload::QueueFull))
            }
        }
    }

    /// Admitted-but-unresolved requests right now.
    pub fn inflight(&self) -> usize {
        self.inner.inflight.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop admitting, let queued and in-flight work
    /// resolve, then stop the workers.
    pub fn shutdown(self) {
        self.shutdown_inner(false)
    }

    /// Shedding shutdown: stop admitting and resolve queued requests as
    /// `Shed { Shutdown }` instead of executing them (in-flight runs
    /// still finish).
    pub fn shutdown_now(self) {
        self.shutdown_inner(true)
    }

    fn shutdown_inner(mut self, shed: bool) {
        self.inner.accepting.store(false, Ordering::SeqCst);
        if shed {
            self.inner.shed_queued.store(true, Ordering::SeqCst);
        }
        // Every admitted request holds an inflight token until its slot
        // resolves; wait for all of them (workers drain the queues).
        while self.inner.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        // Queues are empty (inflight hit zero); workers exit on their
        // next poll timeout.
        self.inner.stop_workers.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn reject(m: &Metrics, why: Overload) -> Overload {
    m.rejected.inc();
    match why {
        Overload::QueueFull => m.rejected_queue_full.inc(),
        Overload::ShuttingDown => m.rejected_shutdown.inc(),
        Overload::UnknownTenant | Overload::UnknownKernel => m.rejected_unknown.inc(),
    }
    why
}
