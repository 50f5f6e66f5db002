//! Cross-thread pool safety: seeded-interleaving (loom-style, in-tree)
//! stress over the lock-free slot free-list, plus the poisoned-slot
//! contract — a release whose reset fails must always tear down, never
//! recycle.
//!
//! The free-list transfers whole boxed [`ArenaParts`] pointers in single
//! atomic swaps, so the classic ABA shapes are structurally absent; what
//! *can* go wrong across threads is (a) a recycled entry leaking another
//! instance's bytes (caught here by `verify_zero` on every reuse), (b) a
//! double-release manifesting as a double-free (caught by the allocator
//! under stress), and (c) `drain` racing a concurrent `release` so an
//! entry survives the sweep — the single-pass bug fixed alongside this
//! test.
//!
//! Lives in its own integration binary: pool config and chaos plans are
//! process-global. Tests serialize on `TEST_LOCK`.

use lb_chaos::SplitMix64;
use lb_core::pool::{self, MemoryPoolConfig};
use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig, WASM_PAGE};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn cfg(strategy: BoundsStrategy) -> MemoryConfig {
    MemoryConfig::new(strategy, 2, 8).with_reserve(16 * WASM_PAGE)
}

/// Enable pooling for the duration of a test; restore the disabled
/// default and drain on drop.
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

fn stress_strategies() -> Vec<BoundsStrategy> {
    let mut v = vec![BoundsStrategy::Trap, BoundsStrategy::Mprotect];
    if lb_core::uffd::sigbus_mode_available() {
        v.push(BoundsStrategy::Uffd);
    }
    v
}

/// One thread's schedule: a seeded stream of acquire/dirty/release
/// cycles interleaved with drains. `verify_zero` is on, so any reuse
/// that leaks another instance's dirty bytes panics the test; any
/// double-release would double-free and abort under the allocator.
fn stress_worker(seed: u64, strategies: &[BoundsStrategy], ops: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut held: Vec<LinearMemory> = Vec::new();
    for _ in 0..ops {
        match rng.below(10) {
            // Mostly: instantiate (pool hit or fresh), dirty it, keep it
            // briefly so releases from other threads interleave.
            0..=5 => {
                let s = strategies[rng.below(strategies.len() as u64) as usize];
                let m = LinearMemory::new(&cfg(s)).expect("instantiate under stress");
                let fill = [rng.next_u64() as u8; 64];
                m.write_bytes((rng.below(1024) as u32) * 8, &fill)
                    .expect("dirty write");
                held.push(m);
                if held.len() > 4 {
                    held.remove(0); // drop ⇒ release on another iteration's slot
                }
            }
            // Sometimes: release everything at once (burst of pushes).
            6..=7 => held.clear(),
            // Sometimes: drain races the other threads' releases.
            8 => {
                pool::drain();
            }
            // Occasionally: sanity-check the parked population bound.
            _ => {
                let parked = pool::pooled_count();
                assert!(
                    parked <= pool::MAX_POOL_SLOTS * 5,
                    "free-list overflow: {parked} parked"
                );
            }
        }
    }
}

#[test]
fn seeded_interleaving_stress_keeps_pool_coherent() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let strategies = stress_strategies();
    for seed in [1u64, 7, 42] {
        let _p = PoolGuard::enable(4, true);
        let barrier = Arc::new(Barrier::new(4));
        let mut threads = Vec::new();
        for tid in 0..4u64 {
            let strategies = strategies.clone();
            let barrier = Arc::clone(&barrier);
            threads.push(std::thread::spawn(move || {
                barrier.wait();
                stress_worker(seed ^ (tid.wrapping_mul(0x9E37_79B9)), &strategies, 150);
            }));
        }
        for t in threads {
            t.join().expect("no stress thread may panic");
        }
        // Quiescent now: one drain must leave nothing parked.
        pool::drain();
        assert_eq!(pool::pooled_count(), 0, "seed {seed}: entries leaked");
    }
}

/// `drain` concurrent with a stream of releases: once the releasing
/// thread has joined, a single drain call must evict every parked entry
/// — the multi-pass sweep guarantees no entry slips behind the cursor.
///
/// The drains keep running until the releaser has published at least
/// [`RACE_RELEASES`] releases, so the race is forced rather than hoped
/// for; a releaser that cannot get there before the deadline fails the
/// test loudly.
#[test]
fn drain_racing_release_leaves_nothing_behind() {
    const RACE_RELEASES: u32 = 64;
    const DEADLINE: Duration = Duration::from_secs(30);
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(8, false);
    let stop = Arc::new(AtomicBool::new(false));
    let published = Arc::new(AtomicU32::new(0));
    let releaser = {
        let stop = Arc::clone(&stop);
        let published = Arc::clone(&published);
        std::thread::spawn(move || {
            let mut n = 0u32;
            while !stop.load(Ordering::Acquire) {
                // Each drop releases into the free-list mid-drain. A
                // transient OS-level mmap failure under this churn is not
                // what the test is about — skip the iteration.
                let Ok(m) = LinearMemory::new(&cfg(BoundsStrategy::Trap)) else {
                    continue;
                };
                m.write_bytes(0, &[1; 16]).expect("write");
                drop(m);
                n += 1;
                published.store(n, Ordering::Release);
            }
            n
        })
    };
    let t0 = Instant::now();
    while published.load(Ordering::Acquire) < RACE_RELEASES {
        if t0.elapsed() > DEADLINE {
            stop.store(true, Ordering::Release);
            let n = releaser.join().expect("releaser lives");
            panic!("releaser published only {n} of {RACE_RELEASES} releases in {DEADLINE:?}");
        }
        pool::drain();
    }
    stop.store(true, Ordering::Release);
    let released = releaser.join().expect("releaser lives");
    assert!(released > 0, "the race must actually have run");
    pool::drain();
    assert_eq!(pool::pooled_count(), 0, "entry survived a quiescent drain");
}

/// The poisoned-slot contract: a release whose reset fails (injected
/// `core.pool.reset` fault) must tear the entry down — the free-list
/// never recycles a slot whose zero-fill reset did not complete.
#[test]
fn poisoned_reset_always_tears_down_never_recycles() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = lb_chaos::install("core.pool.reset:EIO").expect("chaos plan");
    let _p = PoolGuard::enable(4, true);
    for _ in 0..20 {
        let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).expect("fresh instantiate");
        m.write_bytes(0, &[0xFF; 128]).expect("dirty");
        drop(m); // release: reset fault ⇒ teardown, not park
        assert_eq!(
            pool::pooled_count(),
            0,
            "poisoned slot was parked for recycling"
        );
    }
    // The instantiate path keeps working through pool misses.
    let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).expect("slow path survives");
    m.write_bytes(0, &[2; 8]).expect("usable");
}

/// A `verify_zero` window that cannot be populated (injected uffd
/// zeropage fault on acquire) poisons the entry: torn down, counted as a
/// miss, and instantiation falls back to fresh memory — never a panic.
#[test]
fn unverifiable_reuse_degrades_to_pool_miss() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !lb_core::uffd::sigbus_mode_available() {
        return;
    }
    let _p = PoolGuard::enable(4, true);
    // Park one uffd entry.
    drop(LinearMemory::new(&cfg(BoundsStrategy::Uffd)).expect("seed the pool"));
    assert_eq!(pool::pooled_count(), 1);
    // First zeropage ioctl of the verification pass fails once.
    let _guard = lb_chaos::install("core.uffd.copy:1:EIO").expect("chaos plan");
    let m = LinearMemory::new(&cfg(BoundsStrategy::Uffd)).expect("degrades to fresh mmap");
    assert!(!m.from_pool(), "unverifiable entry must not be handed out");
    assert_eq!(pool::pooled_count(), 0, "poisoned entry must be torn down");
    m.write_bytes(0, &[3; 8]).expect("fresh memory usable");
}
