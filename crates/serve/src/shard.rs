//! Shard workers: pinned threads that own a slice of the instance pool
//! and execute admitted requests.
//!
//! Each shard is one worker thread draining one bounded queue, and the
//! worker is the only thread that resolves the requests it dequeues. It
//! checks the deadline at dispatch (a request that expired in the queue
//! is shed, never run — this is also how zero-deadline requests die),
//! claims the ticket's slot, consults the `serve.dispatch` chaos site,
//! and then instantiates + invokes the kernel under `catch_unwind` so a
//! panicking request becomes a `Failed` outcome instead of killing the
//! shard.
//!
//! Graceful degradation under pool exhaustion: instantiation already
//! falls back from pool-hit to fresh-mmap inside `LinearMemory`; if even
//! the slow path fails with a resource errno (ENOMEM/EAGAIN/ENOSPC) the
//! request is load-shed with [`ShedReason::Capacity`] and the pool is
//! drained to return memory to the OS (`serve.pool.relief`) — the server
//! never aborts.

use crate::metrics;
use crate::ticket::{FailStage, Outcome, ShedReason, Slot, PENDING, RUNNING};
use crate::ServerInner;
use lb_core::{LoadError, MemoryError};
use lb_telemetry::clock::now_ns;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Pin the calling thread to `cpu` (modulo the CPU count). Best-effort;
/// an error just leaves the thread unpinned.
fn pin_to_cpu(cpu: usize) {
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let target = cpu % n;
    // SAFETY: standard affinity call with a properly zeroed set.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(target, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set);
    }
}

/// Whether a `LoadError` means "the machine is out of a resource" (shed
/// + relief) as opposed to "this request is broken" (fail).
fn is_capacity(err: &LoadError) -> bool {
    let io_err = match err {
        LoadError::Memory(MemoryError::Reserve(e)) => e,
        LoadError::Memory(MemoryError::Protect(e)) => e,
        LoadError::Memory(MemoryError::Uffd(e)) => e,
        _ => return false,
    };
    matches!(
        io_err.raw_os_error(),
        Some(libc::ENOMEM) | Some(libc::EAGAIN) | Some(libc::ENOSPC)
    )
}

fn execute(inner: &ServerInner, slot: &Slot) -> Outcome {
    let kernel = &inner.kernels[slot.kernel];
    let started = now_ns();
    let mut instance = match kernel.module.instantiate(&inner.memory, &inner.linker) {
        Ok(i) => i,
        Err(e) if is_capacity(&e) => {
            return Outcome::Shed {
                reason: ShedReason::Capacity,
            }
        }
        Err(e) => {
            return Outcome::Failed {
                stage: FailStage::Instantiate,
                error: e.to_string(),
            }
        }
    };
    match instance.invoke(&kernel.entry, &kernel.args) {
        Ok(_) => Outcome::Completed {
            queue_ns: slot.queue_ns(),
            run_ns: now_ns().saturating_sub(started),
        },
        Err(trap) => Outcome::Failed {
            stage: FailStage::Invoke,
            error: trap.to_string(),
        },
    }
}

fn run_one(inner: &ServerInner, slot: Arc<Slot>) {
    let now = now_ns();

    if inner.shed_queued.load(Ordering::Acquire) {
        slot.resolve_from(
            PENDING,
            Outcome::Shed {
                reason: ShedReason::Shutdown,
            },
            now,
        );
        return;
    }

    // Deadline re-check at dispatch: expired queued work (including
    // zero-deadline requests, whose deadline equals their admission
    // time) is shed before any instantiation happens.
    if now >= slot.deadline_ns {
        slot.resolve_from(
            PENDING,
            Outcome::Shed {
                reason: ShedReason::DeadlineDispatch,
            },
            now,
        );
        return;
    }

    if !slot.try_claim(now) {
        // Already claimed or resolved: the CAS keeps a slot from running
        // twice even though this worker is its only resolver.
        return;
    }

    let outcome = if let Some(e) = lb_chaos::inject("serve.dispatch") {
        Outcome::Failed {
            stage: FailStage::Dispatch,
            error: format!("injected dispatch fault: {e}"),
        }
    } else {
        catch_unwind(AssertUnwindSafe(|| execute(inner, &slot))).unwrap_or_else(|panic| {
            let error = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            Outcome::Failed {
                stage: FailStage::Worker,
                error,
            }
        })
    };

    let done = now_ns();
    let m = metrics();
    match &outcome {
        Outcome::Completed { queue_ns, run_ns } => {
            m.queue_ns.record(*queue_ns);
            m.run_ns.record(*run_ns);
        }
        Outcome::Shed {
            reason: ShedReason::Capacity,
        } => {
            // Resource exhaustion: load-shed and give memory back.
            lb_core::pool::drain();
            m.pool_relief.inc();
        }
        Outcome::Failed { .. } | Outcome::Shed { .. } => {}
    }
    slot.resolve_from(RUNNING, outcome, done);
}

/// The shard worker loop: drain the queue until the channel closes.
pub(crate) fn worker_loop(inner: Arc<ServerInner>, rx: Receiver<Arc<Slot>>, shard_idx: usize) {
    if inner.pin_workers {
        pin_to_cpu(shard_idx);
    }
    loop {
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(slot) => run_one(&inner, slot),
            Err(RecvTimeoutError::Timeout) => {
                if inner.stop_workers.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}
