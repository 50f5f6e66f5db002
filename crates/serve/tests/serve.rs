//! End-to-end tests for the serving layer: admission, deadlines,
//! noisy-neighbor isolation, shutdown, and the exactly-once outcome
//! invariant under injected faults.
//!
//! Lives in its own integration binary because chaos plans and telemetry
//! counters are process-global; tests serialize on `TEST_LOCK`.

use lb_core::{BoundsStrategy, Engine, MemoryConfig, WASM_PAGE};
use lb_interp::InterpEngine;
use lb_serve::{KernelSpec, Outcome, Overload, ServeConfig, Server, ShedReason};
use lb_wasm::module::{Export, ExportKind, Function, Import};
use lb_wasm::{FuncType, Instr, Limits, MemoryType, Module, ValType};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// `run()`: store a marker, then return 7. Optionally calls the host
/// import `env.pause` first so tests can control service time.
fn kernel_module(with_pause: bool) -> Module {
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
    let mut body = Vec::new();
    let func_idx = if with_pause {
        m.types.push(FuncType {
            params: vec![],
            results: vec![],
        });
        m.imports.push(Import {
            module: "env".into(),
            name: "pause".into(),
            type_idx: 1,
        });
        body.push(Instr::Call(0));
        1
    } else {
        0
    };
    body.extend([
        Instr::I32Const(16),
        Instr::I32Const(42),
        Instr::I32Store(lb_wasm::MemArg::offset(0)),
        Instr::I32Const(7),
        Instr::End,
    ]);
    m.functions.push(Function {
        type_idx: 0,
        locals: vec![],
        body,
        name: Some("run".into()),
    });
    m.exports.push(Export {
        name: "run".into(),
        kind: ExportKind::Func(func_idx),
    });
    lb_wasm::validate(&m).expect("module validates");
    m
}

fn mem_config() -> MemoryConfig {
    MemoryConfig::new(BoundsStrategy::Trap, 1, 2).with_reserve(4 * WASM_PAGE)
}

fn kernels(with_pause: bool) -> Vec<KernelSpec> {
    let engine = InterpEngine::new();
    let module = engine.load(&kernel_module(with_pause)).expect("load");
    vec![KernelSpec {
        name: "store7".into(),
        module,
        entry: "run".into(),
        args: vec![],
    }]
}

fn pause_linker(ms: u64) -> lb_core::Linker {
    counting_pause_linker(ms, Arc::new(AtomicUsize::new(0)))
}

/// `pause_linker` that also counts its calls, i.e. the requests that ran.
fn counting_pause_linker(ms: u64, calls: Arc<AtomicUsize>) -> lb_core::Linker {
    let mut linker = lb_core::Linker::new();
    linker.func("env", "pause", move |_, _| {
        calls.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(ms));
        Ok(None)
    });
    linker
}

#[test]
fn requests_complete_end_to_end() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        kernels(false),
        mem_config(),
        lb_core::Linker::new(),
    );
    let mut tickets = Vec::new();
    for i in 0..100u32 {
        // Closed-loop: bounded queues push back under a fast submitter,
        // so retry QueueFull instead of treating it as an error.
        loop {
            match server.submit(i % 3, 0, None) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(Overload::QueueFull) => std::thread::sleep(Duration::from_micros(200)),
                Err(e) => panic!("unexpected rejection {e:?}"),
            }
        }
    }
    for t in tickets {
        match t.wait() {
            Outcome::Completed { .. } => {}
            other => panic!("expected completion, got {other:?}"),
        }
    }
    assert_eq!(server.inflight(), 0);
    server.shutdown();
}

#[test]
fn unknown_tenant_and_kernel_reject_typed() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(
        ServeConfig::default(),
        kernels(false),
        mem_config(),
        lb_core::Linker::new(),
    );
    assert_eq!(
        server.submit(999, 0, None).unwrap_err(),
        Overload::UnknownTenant
    );
    assert_eq!(
        server.submit(0, 999, None).unwrap_err(),
        Overload::UnknownKernel
    );
    server.shutdown();
}

#[test]
fn zero_deadline_is_admitted_then_shed_never_run() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(
        ServeConfig::default(),
        kernels(false),
        mem_config(),
        lb_core::Linker::new(),
    );
    for _ in 0..50 {
        let t = server
            .submit(0, 0, Some(Duration::ZERO))
            .expect("zero-deadline requests are admitted");
        match t.wait() {
            Outcome::Shed { reason } => assert_eq!(reason, ShedReason::DeadlineDispatch),
            other => panic!("zero-deadline request must shed, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A request whose deadline passes while it waits behind a 50 ms run is
/// shed when the worker dequeues it, and never runs.
#[test]
fn deadline_expired_in_queue_is_shed_at_dispatch() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let calls = Arc::new(AtomicUsize::new(0));
    let server = Server::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        kernels(true),
        mem_config(),
        counting_pause_linker(50, Arc::clone(&calls)),
    );
    let first = server.submit(0, 0, None).expect("first admitted");
    let late = server
        .submit(0, 0, Some(Duration::from_millis(5)))
        .expect("second admitted");
    match late.wait() {
        Outcome::Shed { reason } => assert_eq!(reason, ShedReason::DeadlineDispatch),
        other => panic!("expired request must shed at dispatch, got {other:?}"),
    }
    assert!(first.wait().is_completed());
    assert_eq!(calls.load(Ordering::SeqCst), 1, "the expired request ran");
    server.shutdown();
}

/// A tenant flooding its home shard gets bounded-queue rejections while
/// a tenant homed on the other shard keeps completing. Requests pause
/// 5ms in a host call, so the flooder's queue genuinely backs up.
#[test]
fn noisy_tenant_saturates_one_shard_not_all() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(
        ServeConfig {
            shards: 2,
            queue_depth: 4,
            max_inflight: 1024,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        },
        kernels(true),
        mem_config(),
        pause_linker(5),
    );
    // Find two tenants homed on different shards by probing one request
    // each (tenant-affinity routing is a pure function of tenant id).
    let ta = server.submit(0, 0, None).expect("probe a");
    let mut noisy = 0u32;
    let mut quiet = 0u32;
    for cand in 1..8u32 {
        let t = server.submit(cand, 0, None).expect("probe");
        if t.shard() != ta.shard() {
            noisy = 0;
            quiet = cand;
            break;
        }
    }
    assert_ne!(noisy, quiet, "two shards must yield two distinct homes");

    // Flood the noisy tenant's home shard far past its queue depth.
    let mut flood = Vec::new();
    let mut rejected = 0u32;
    for _ in 0..64 {
        match server.submit(noisy, 0, None) {
            Ok(t) => flood.push(t),
            Err(Overload::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected rejection {e:?}"),
        }
    }
    assert!(
        rejected > 0,
        "bounded queue must reject once the noisy shard is saturated"
    );

    // The quiet tenant's shard still serves within a tight deadline.
    let quiet_ticket = server.submit(quiet, 0, None).expect("quiet admitted");
    match quiet_ticket.wait_timeout(Duration::from_secs(5)) {
        Some(Outcome::Completed { .. }) => {}
        other => panic!("quiet tenant must complete promptly, got {other:?}"),
    }
    for t in flood {
        assert!(
            !matches!(t.wait(), Outcome::Failed { .. }),
            "flooded requests complete or shed, never fail"
        );
    }
    server.shutdown();
}

/// The forced-overload chaos knob drills the queue-full rejection path
/// without real pressure.
#[test]
fn queue_full_chaos_knob_forces_typed_rejection() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = lb_chaos::install("serve.queue_full:1:EAGAIN").expect("chaos plan");
    let server = Server::start(
        ServeConfig::default(),
        kernels(false),
        mem_config(),
        lb_core::Linker::new(),
    );
    assert_eq!(server.submit(0, 0, None).unwrap_err(), Overload::QueueFull);
    // One-shot: the next request sails through.
    assert!(server.submit(0, 0, None).unwrap().wait().is_completed());
    server.shutdown();
}

/// Shedding shutdown resolves queued requests as `Shed { Shutdown }`;
/// nothing is lost and nothing executes after the flag.
#[test]
fn shutdown_now_sheds_queued_work() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(
        ServeConfig {
            shards: 1,
            queue_depth: 64,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        },
        kernels(true),
        mem_config(),
        pause_linker(3),
    );
    let mut tickets = Vec::new();
    for _ in 0..32 {
        match server.submit(0, 0, None) {
            Ok(t) => tickets.push(t),
            Err(Overload::QueueFull) => break,
            Err(e) => panic!("unexpected rejection {e:?}"),
        }
    }
    server.shutdown_now();
    let mut sheds = 0;
    for t in tickets {
        match t.wait() {
            Outcome::Completed { .. } => {}
            Outcome::Shed {
                reason: ShedReason::Shutdown,
            } => sheds += 1,
            other => panic!("lost or mis-resolved request: {other:?}"),
        }
    }
    assert!(sheds > 0, "queued work behind the in-flight run must shed");
}

/// Chaos at the instantiation boundary (pool reset, mmap, uffd sites)
/// under concurrent load: every admitted request still resolves exactly
/// once, and the process never aborts.
#[test]
fn chaos_on_memory_sites_never_loses_requests() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = lb_chaos::install(
        "core.mmap.reserve:rate=0.05:ENOMEM;core.pool.reset:rate=0.05:EIO;seed=42",
    )
    .expect("chaos plan");
    let server = Server::start(
        ServeConfig {
            shards: 2,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        },
        kernels(false),
        mem_config(),
        lb_core::Linker::new(),
    );
    let mut completed = 0u32;
    let mut shed = 0u32;
    let mut failed = 0u32;
    for _ in 0..500 {
        let Ok(t) = server.submit(0, 0, None) else {
            continue;
        };
        match t.wait() {
            Outcome::Completed { .. } => completed += 1,
            Outcome::Shed { .. } => shed += 1,
            Outcome::Failed { .. } => failed += 1,
        }
    }
    assert!(completed > 0, "some requests must survive 5% fault rates");
    // ENOMEM on reserve is a capacity shed, not a failure — and either
    // way every ticket resolved (wait() returned), nothing leaked.
    assert_eq!(server.inflight(), 0);
    let _ = (shed, failed);
    server.shutdown();
}
