//! Instance-pool contract tests: zero `mmap`/`munmap` at steady state,
//! the zero-fill guarantee after dirtying runs, kept-alive uffd
//! registration, reuse keyed on the arena's exact shape, and clean
//! degradation when pooling is off.
//!
//! Lives in its own integration binary because the pool configuration is
//! process-global; every test serializes on `TEST_LOCK` and restores the
//! disabled-pool default before returning.

use lb_core::pool::{self, MemoryPoolConfig};
use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig, WASM_PAGE};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn cfg(strategy: BoundsStrategy) -> MemoryConfig {
    shaped(strategy, 2, 16)
}

fn shaped(strategy: BoundsStrategy, initial_pages: u32, reserve_pages: usize) -> MemoryConfig {
    MemoryConfig::new(strategy, initial_pages, 8).with_reserve(reserve_pages * WASM_PAGE)
}

fn maps_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Enable pooling for the duration of a test; disables and drains on drop
/// so sibling tests (and the binary's exit) see the default state.
struct PoolGuard;

impl PoolGuard {
    fn enable(capacity: usize, verify_zero: bool) -> PoolGuard {
        pool::drain();
        pool::configure(MemoryPoolConfig {
            capacity,
            verify_zero,
        });
        PoolGuard
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        pool::configure(MemoryPoolConfig::default());
        pool::drain();
    }
}

fn strategies() -> Vec<BoundsStrategy> {
    BoundsStrategy::ALL
        .into_iter()
        .filter(|&s| s != BoundsStrategy::Uffd || lb_core::uffd::sigbus_mode_available())
        .collect()
}

/// Marks the child process [`in_child_process`] starts.
const CHILD_ENV: &str = "LB_POOL_TEST_CHILD";

/// Run `body` in a child process of this test binary that runs only the
/// test `name`, so no sibling test (nor the harness threads that run
/// them) maps or unmaps memory while `body` diffs `/proc/self/maps`.
fn in_child_process(name: &str, body: impl FnOnce()) {
    if std::env::var_os(CHILD_ENV).is_some() {
        body();
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([name, "--exact", "--test-threads=1", "--nocapture"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("run the test binary as a child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{name} failed in its child process ({}):\n{stdout}{stderr}",
        out.status
    );
}

#[test]
fn steady_state_reuse_performs_zero_mmap_and_maps_stay_stable() {
    in_child_process(
        "steady_state_reuse_performs_zero_mmap_and_maps_stay_stable",
        steady_state_reuse,
    );
}

fn steady_state_reuse() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(4, true);
    for s in strategies() {
        // Warm-up: the first instantiations miss and map fresh memory;
        // their drops park the parts. A few rounds also settle the
        // allocator so the maps snapshot below is steady.
        for _ in 0..3 {
            let m = LinearMemory::new(&cfg(s)).unwrap();
            m.write_bytes(0, &[0xAB; 256]).unwrap();
        }
        let before = lb_core::stats::snapshot();
        let maps_before = maps_lines();
        for i in 0..10u32 {
            let m = LinearMemory::new(&cfg(s)).unwrap();
            assert!(m.from_pool(), "iteration {i} of {s} must hit the pool");
            m.write_bytes(i % 2 * 4096, &[0xCD; 512]).unwrap();
        }
        let d = lb_core::stats::snapshot().delta(&before);
        assert_eq!(d.mmap, 0, "{s}: steady-state reuse must not mmap");
        assert_eq!(d.munmap, 0, "{s}: steady-state reuse must not munmap");
        assert!(d.pool_hits >= 10, "{s}: hits {}", d.pool_hits);
        assert_eq!(d.pool_misses, 0, "{s}: no misses at steady state");
        assert_eq!(
            maps_lines(),
            maps_before,
            "{s}: the address space must be byte-for-byte stable"
        );
        if s == BoundsStrategy::Uffd {
            assert_eq!(
                d.uffd_register, 0,
                "reuse must keep the uffd registration alive"
            );
        }
        if s == BoundsStrategy::Mprotect {
            assert_eq!(
                d.mprotect, 0,
                "same-shape mprotect reuse must skip every protect call"
            );
        }
    }
}

#[test]
fn reused_memory_reads_all_zero_after_dirtying_run() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(2, true);
    for s in strategies() {
        let init_bytes = 2 * WASM_PAGE;
        {
            let m = LinearMemory::new(&cfg(s)).unwrap();
            // Dirty every page of the initial window.
            let junk = vec![0x5Au8; init_bytes];
            m.write_bytes(0, &junk).unwrap();
            let mut check = vec![0u8; 64];
            m.read_bytes((init_bytes - 64) as u32, &mut check).unwrap();
            assert!(check.iter().all(|&b| b == 0x5A));
        }
        // Reuse observes fresh zeros everywhere (verify_zero additionally
        // asserts this inside acquire before the memory is handed out).
        let m = LinearMemory::new(&cfg(s)).unwrap();
        assert!(m.from_pool(), "{s}: second instantiation must be pooled");
        let mut buf = vec![0xFFu8; init_bytes];
        m.read_bytes(0, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == 0),
            "{s}: recycled memory leaked previous contents"
        );
    }
}

#[test]
fn uffd_reuse_faults_and_traps_like_fresh_memory() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !lb_core::uffd::sigbus_mode_available() {
        eprintln!("skipping: uffd unavailable");
        return;
    }
    let _p = PoolGuard::enable(2, false);
    {
        let m = LinearMemory::new(&cfg(BoundsStrategy::Uffd)).unwrap();
        let v = lb_core::catch_traps(|| m.load::<u64>(64, 0)).unwrap();
        assert_eq!(v, 0);
    }
    let m = LinearMemory::new(&cfg(BoundsStrategy::Uffd)).unwrap();
    assert!(m.from_pool());
    // Out-of-bounds detection is intact...
    let e = lb_core::catch_traps(|| m.load::<u8>((2 * WASM_PAGE) as u32, 0)).unwrap_err();
    assert_eq!(*e.kind(), lb_core::TrapKind::OutOfBounds);
    // ...and lazy fault service of grown memory still works on the
    // recycled registration.
    m.grow(1).unwrap();
    let before = lb_core::stats::snapshot();
    let v = lb_core::catch_traps(|| m.load::<u64>((2 * WASM_PAGE) as u32, 0)).unwrap();
    assert_eq!(v, 0);
    assert!(lb_core::stats::snapshot().delta(&before).uffd_zeropage >= 1);
}

/// A memory with no initial pages parks an arena registered from offset
/// 0. It must not serve a 1-page memory, whose initial page would then be
/// served by SIGBUS on every reuse; the 1-page memory gets an arena of
/// its own shape, and reusing that one touches its initial memory as
/// plain memory.
#[test]
fn uffd_initial_memory_stays_plain_after_a_smaller_memory_parks() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !lb_core::uffd::sigbus_mode_available() {
        eprintln!("skipping: uffd unavailable");
        return;
    }
    let _p = PoolGuard::enable(2, false);
    drop(LinearMemory::new(&shaped(BoundsStrategy::Uffd, 0, 16)).unwrap());
    drop(LinearMemory::new(&shaped(BoundsStrategy::Uffd, 1, 16)).unwrap());
    let before = lb_core::stats::snapshot();
    let m = LinearMemory::new(&shaped(BoundsStrategy::Uffd, 1, 16)).unwrap();
    assert!(m.from_pool());
    lb_core::catch_traps(|| {
        (0..WASM_PAGE as u32)
            .step_by(4096)
            .try_for_each(|a| m.store::<u8>(a, 0, 1))
    })
    .unwrap();
    let d = lb_core::stats::snapshot().delta(&before);
    assert_eq!(d.uffd_register, 0, "reuse keeps the registration");
    assert_eq!(d.uffd_zeropage, 0, "the initial memory is plain");
    let e = lb_core::catch_traps(|| m.store::<u8>(WASM_PAGE as u32, 0, 1)).unwrap_err();
    assert_eq!(*e.kind(), lb_core::TrapKind::OutOfBounds);
}

#[test]
fn mprotect_reuse_restores_guard_pages_for_smaller_instances() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(2, false);
    {
        let m = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
        // Grow to 5 pages: the RW high-water mark now exceeds the next
        // instance's 2-page initial window.
        m.grow(3).unwrap();
        lb_core::catch_traps(|| m.store::<u8>((4 * WASM_PAGE) as u32, 0, 1)).unwrap();
    }
    let m = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
    assert!(m.from_pool());
    // Pages beyond the new initial size must be PROT_NONE again — OOB
    // detection takes priority over keeping the old window writable.
    let e = lb_core::catch_traps(|| m.load::<u8>((3 * WASM_PAGE) as u32, 0)).unwrap_err();
    assert_eq!(*e.kind(), lb_core::TrapKind::OutOfBounds);
    // Growing back over the restored guard range needs exactly one
    // protect call (the high-water mark was deliberately lowered).
    let before = lb_core::stats::snapshot();
    m.grow(3).unwrap();
    m.grow(0).unwrap();
    let d = lb_core::stats::snapshot().delta(&before);
    assert_eq!(d.mprotect, 1, "one protect for the regrow, none for no-ops");
    lb_core::catch_traps(|| m.store::<u8>((4 * WASM_PAGE) as u32, 0, 2)).unwrap();
}

#[test]
fn disabled_pool_never_reuses() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(0, false);
    {
        let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap();
        assert!(!m.from_pool());
    }
    assert_eq!(pool::pooled_count(), 0);
    let before = lb_core::stats::snapshot();
    let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap();
    assert!(!m.from_pool());
    let d = lb_core::stats::snapshot().delta(&before);
    assert_eq!(d.mmap, 1, "disabled pool maps fresh memory every time");
    assert_eq!(d.pool_hits, 0);
    assert_eq!(d.pool_misses, 0, "a disabled pool does not count misses");
}

/// A parked arena serves only its own shape: strategy, reservation and
/// plain prefix. Under none, clamp and trap the prefix is the whole
/// reservation, so any initial size reuses it; under mprotect and uffd a
/// different initial size misses and leaves the parked entry in place. A
/// same-shape hit makes no syscall.
#[test]
fn reuse_is_keyed_on_exact_shape() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for s in strategies() {
        let _p = PoolGuard::enable(4, true);
        drop(LinearMemory::new(&shaped(s, 2, 16)).unwrap());
        assert_eq!(pool::pooled_count(), 1);

        let before = lb_core::stats::snapshot();
        let m = LinearMemory::new(&shaped(s, 3, 16)).unwrap();
        let d = lb_core::stats::snapshot().delta(&before);
        if matches!(s, BoundsStrategy::Mprotect | BoundsStrategy::Uffd) {
            assert!(!m.from_pool(), "{s}: a different initial size misses");
            assert_eq!((d.pool_misses, d.mmap, d.munmap), (1, 1, 0), "{s}");
            assert_eq!(pool::pooled_count(), 1, "{s}: the entry stays parked");
        } else {
            assert!(m.from_pool(), "{s}: any initial size is the same shape");
            assert_eq!((d.pool_hits, d.mmap), (1, 0), "{s}");
        }
        drop(m);

        let before = lb_core::stats::snapshot();
        let m = LinearMemory::new(&shaped(s, 2, 32)).unwrap();
        let d = lb_core::stats::snapshot().delta(&before);
        assert!(!m.from_pool(), "{s}: a different reservation misses");
        assert_eq!((d.pool_misses, d.mmap, d.munmap), (1, 1, 0), "{s}");
        drop(m);

        let before = lb_core::stats::snapshot();
        let m = LinearMemory::new(&shaped(s, 2, 16)).unwrap();
        let d = lb_core::stats::snapshot().delta(&before);
        assert!(m.from_pool(), "{s}: the same shape hits");
        assert_eq!((d.mmap, d.mprotect, d.uffd_register), (0, 0, 0), "{s}");
        m.grow(1).unwrap();
        let before = lb_core::stats::snapshot();
        drop(m);
        let d = lb_core::stats::snapshot().delta(&before);
        let reprotect = u64::from(s == BoundsStrategy::Mprotect);
        assert_eq!(
            d.mprotect, reprotect,
            "{s}: release re-protects a grown memory"
        );
    }
}

/// A full list evicts its oldest entry, so the shape the traffic asked
/// for last is the one kept.
#[test]
fn full_pool_evicts_the_oldest_entry() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(1, false);
    let (old, new) = (
        shaped(BoundsStrategy::Trap, 2, 16),
        shaped(BoundsStrategy::Trap, 2, 32),
    );
    drop(LinearMemory::new(&old).unwrap());
    let before = lb_core::stats::snapshot();
    drop(LinearMemory::new(&new).unwrap());
    let d = lb_core::stats::snapshot().delta(&before);
    assert_eq!(d.munmap, 1, "parking the newer entry unmaps the older");
    assert_eq!(pool::pooled_count(), 1);
    let stale = LinearMemory::new(&old).unwrap();
    assert!(!stale.from_pool(), "the older shape was evicted");
    assert!(LinearMemory::new(&new).unwrap().from_pool());
}

#[test]
fn capacity_bounds_parked_entries() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(2, false);
    let memories: Vec<_> = (0..5)
        .map(|_| LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap())
        .collect();
    drop(memories);
    assert_eq!(
        pool::pooled_count(),
        2,
        "excess releases beyond capacity tear down"
    );
    assert_eq!(pool::drain(), 2);
    assert_eq!(pool::pooled_count(), 0);
}
