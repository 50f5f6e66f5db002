//! The chaos matrix: every registered fault point crossed with every
//! bounds-checking strategy. The contract under test is the failure
//! model's headline: an injected OS-boundary failure produces a clean
//! `Err` or a documented strategy fallback — never a panic, abort, or
//! resource leak.
//!
//! Lives in its own integration binary so the process-global chaos plan
//! cannot perturb lb-core's unit tests; chaos-installing tests serialize
//! on the `ChaosGuard` install lock.

use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig, WASM_PAGE};
use std::sync::Mutex;

/// Serializes the whole binary: the leak test samples process-wide state
/// (`/proc/self/fd`, `/proc/self/maps`) that concurrent siblings would
/// perturb, and everything here is fast enough that ordering costs nothing.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn cfg(strategy: BoundsStrategy) -> MemoryConfig {
    MemoryConfig::new(strategy, 2, 8).with_reserve(16 * WASM_PAGE)
}

/// Exercise a full memory lifecycle; every fallible step must fail
/// cleanly (Result/Option), so reaching the end proves no panic/abort.
fn lifecycle(strategy: BoundsStrategy) -> Result<(), String> {
    let m = LinearMemory::new(&cfg(strategy)).map_err(|e| e.to_string())?;
    // Injected grow failures must read as wasm-level `memory.grow == -1`.
    let _ = m.grow(1);
    // Host access to the grown page, which a uffd memory populates by
    // ioctl; populate failures (and a failed grow) surface as traps.
    let grown = 2 * WASM_PAGE as u32;
    let _ = m.write_bytes(grown, b"chaos");
    let mut buf = [0u8; 5];
    let _ = m.read_bytes(grown, &mut buf);
    Ok(())
}

#[test]
fn every_fault_point_on_every_strategy_fails_clean_or_falls_back() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for site in lb_chaos::SITES {
        // One-shot injections: an always-firing EAGAIN on core.uffd.copy
        // would livelock by design (the kernel contract is "retry"), so
        // the matrix uses `:1:` which every consumer must absorb once.
        for errno in ["EPERM", "ENOMEM", "EIO"] {
            let guard = lb_chaos::install(&format!("{site}:1:{errno}")).unwrap();
            let before = lb_telemetry::snapshot();
            for strategy in BoundsStrategy::ALL {
                if let Err(e) = lifecycle(strategy) {
                    // Errors are fine; they just must be *clean*. The only
                    // strategies allowed to fail construction outright are
                    // those whose failed boundary has no fallback edge.
                    assert!(
                        site.starts_with("core.mmap") || strategy == BoundsStrategy::Uffd,
                        "{site}:{errno} under {strategy}: unexpected hard failure: {e}"
                    );
                }
            }
            if *site == "core.uffd.copy" && lb_core::uffd::sigbus_mode_available() {
                let fired = lb_telemetry::snapshot()
                    .delta_since(&before)
                    .counter("chaos.fired.core.uffd.copy");
                assert_eq!(
                    fired, 1,
                    "{site}:{errno}: the grown-page copy must populate"
                );
            }
            drop(guard);
        }
    }
}

/// The shared userfaultfd is created once per process, so the per-memory
/// uffd failure a container's seccomp or fd exhaustion produces is a
/// refused `UFFDIO_REGISTER`.
#[test]
fn uffd_register_failure_degrades_to_mprotect() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = lb_chaos::install("core.uffd.register:1:EPERM").unwrap();
    let m = LinearMemory::new(&cfg(BoundsStrategy::Uffd)).unwrap();
    assert_eq!(m.requested_strategy(), BoundsStrategy::Uffd);
    assert_ne!(m.strategy(), BoundsStrategy::Uffd);
    assert!(m.fell_back());
}

#[test]
fn mprotect_init_failure_degrades_to_trap() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = lb_chaos::install("core.mprotect.init:1:EACCES").unwrap();
    let m = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
    assert_eq!(m.strategy(), BoundsStrategy::Trap);
    assert!(m.fell_back());
    // The software-checked memory is fully usable.
    m.write_bytes(16, b"ok").unwrap();
}

#[test]
fn injected_grow_failure_is_wasm_minus_one_not_a_crash() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = lb_chaos::install("core.mprotect.grow:1:ENOMEM").unwrap();
    let m = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
    assert_eq!(m.strategy(), BoundsStrategy::Mprotect, "init must not trip");
    assert_eq!(m.grow(1), None, "injected ENOMEM → grow yields -1");
    assert_eq!(m.grow(1), Some(2), "one-shot consumed; next grow succeeds");
}

fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Open descriptors that are userfaultfds.
fn userfaultfd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .filter(|target| target.to_str() == Some("anon_inode:[userfaultfd]"))
        .count()
}

/// Every uffd memory shares one process-wide userfaultfd: eight live
/// memories hold one descriptor between them, and dropping them closes
/// nothing. Sharing one uffd context lets the kernel merge adjacent
/// registered ranges, so each arena's committed boundary is checked too.
#[test]
fn live_uffd_memories_share_one_userfaultfd() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !lb_core::uffd::sigbus_mode_available() {
        eprintln!("skipping: userfaultfd SIGBUS mode unavailable");
        return;
    }
    let memories: Vec<LinearMemory> = (0..8)
        .map(|_| LinearMemory::new(&cfg(BoundsStrategy::Uffd)).unwrap())
        .collect();
    assert_eq!(
        userfaultfd_count(),
        1,
        "one userfaultfd for 8 live memories"
    );
    for m in &memories {
        assert_eq!(m.strategy(), BoundsStrategy::Uffd);
        let committed = m.committed() as u32;
        let v = lb_core::catch_traps(|| m.load::<u64>(committed - 8, 0)).unwrap();
        assert_eq!(v, 0, "first touch below committed reads zero");
        let e = lb_core::catch_traps(|| m.load::<u8>(committed, 0)).unwrap_err();
        assert_eq!(*e.kind(), lb_core::TrapKind::OutOfBounds);
    }
    drop(memories);
    assert_eq!(userfaultfd_count(), 1, "dropping a memory closes no fd");
}

fn maps_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .unwrap()
        .lines()
        .count()
}

#[test]
fn partial_construction_failure_leaks_no_fds_or_mappings() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Warm up allocator arenas and lazy statics so the baseline is stable.
    for _ in 0..8 {
        let _ = LinearMemory::new(&cfg(BoundsStrategy::Mprotect));
        let _ = LinearMemory::new(&cfg(BoundsStrategy::Uffd));
    }
    let fds_before = fd_count();
    let maps_before = maps_lines();

    // Hard failures: the reservation itself is refused.
    {
        let _g = lb_chaos::install("core.mmap.reserve:EIO").unwrap();
        for _ in 0..64 {
            assert!(LinearMemory::new(&cfg(BoundsStrategy::Trap)).is_err());
        }
    }
    // Partial failures: reservation succeeds, a later step fails, and the
    // chain retries with the next strategy — dropping the partial state.
    {
        let _g = lb_chaos::install("core.mprotect.init:EIO").unwrap();
        for _ in 0..64 {
            let m = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
            assert!(m.fell_back());
        }
    }
    // Uffd partial failure: the injected register failure strikes after
    // the reservation exists, and the fallback path must unmap it. The
    // shared userfaultfd is not the memory's to close, so the fd count
    // stays flat. (Without uffd access, creation fails and the same
    // invariant covers the reservation.)
    {
        let _g = lb_chaos::install("core.uffd.register:EIO").unwrap();
        for _ in 0..64 {
            let _ = LinearMemory::new(&cfg(BoundsStrategy::Uffd)).unwrap();
        }
    }

    assert_eq!(fd_count(), fds_before, "file descriptors leaked");
    let maps_after = maps_lines();
    assert!(
        maps_after <= maps_before + 6,
        "mappings leaked: {maps_before} -> {maps_after}"
    );
}

/// Pool chaos: an injected failure anywhere in the release-side reset
/// (the `core.pool.reset` gate or the `madvise` it drives) must degrade
/// to a torn-down entry — the next instantiation is a pool miss served
/// by a fresh `mmap`, never an abort and never a dirty reuse.
#[test]
fn injected_reset_failure_degrades_to_fresh_mmap_pool_miss() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    use lb_core::pool::{self, MemoryPoolConfig};
    for site in ["core.pool.reset:1:EIO", "core.madvise.discard:1:EIO"] {
        pool::drain();
        pool::configure(MemoryPoolConfig {
            capacity: 2,
            verify_zero: true,
        });
        let guard = lb_chaos::install(site).unwrap();
        {
            let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap();
            m.write_bytes(0, b"dirty").unwrap();
            // Drop hits the injected reset failure: the entry must be
            // torn down, not parked dirty.
        }
        assert_eq!(pool::pooled_count(), 0, "{site}: failed reset must evict");
        let before = lb_core::stats::snapshot();
        let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap();
        assert!(!m.from_pool(), "{site}");
        let d = lb_core::stats::snapshot().delta(&before);
        assert_eq!(d.pool_misses, 1, "{site}");
        assert_eq!(d.mmap, 1, "{site}: the miss maps fresh memory");
        let mut buf = [0xFFu8; 8];
        m.read_bytes(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8], "{site}: fresh memory is zero");
        drop(guard);
        drop(m);
        pool::configure(MemoryPoolConfig::default());
        pool::drain();
    }
}

#[test]
fn seeded_rate_injection_is_deterministic_across_installs() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = "core.mmap.reserve:rate=0.5:EIO;seed=1234";
    let pattern = |spec: &str| -> Vec<bool> {
        let _g = lb_chaos::install(spec).unwrap();
        (0..64)
            .map(|_| LinearMemory::new(&cfg(BoundsStrategy::Trap)).is_ok())
            .collect()
    };
    let a = pattern(spec);
    let b = pattern(spec);
    assert_eq!(a, b, "same seed must reproduce the same fault pattern");
    assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !*ok));
    let c = pattern("core.mmap.reserve:rate=0.5:EIO;seed=99");
    assert_ne!(a, c, "different seed should (overwhelmingly) differ");
}
