//! # lb-sim — a discrete-event model of Linux mm contention
//!
//! The paper's multithreaded results (figures 3–5) hinge on a kernel
//! mechanism: `mprotect(2)` must take the process-wide `mmap_lock`
//! exclusively and broadcast TLB-shootdown IPIs, so isolate-per-thread
//! workloads that create/destroy wasm memories serialize on it, while
//! userfaultfd resolves faults per-page without the exclusive lock
//! (§2.3.1, §4.2.1). This container has one CPU, so that contention cannot
//! manifest physically; this crate simulates the documented mechanism on a
//! configurable number of cores and regenerates the scaling shapes.
//!
//! The model: each worker thread loops over iterations of
//! `setup (lock) → compute → teardown (lock)`. The mmap lock is FIFO and
//! exclusive; holding it for an mprotect-style operation costs a base
//! latency plus an IPI per other active thread. The uffd strategy replaces
//! lock-held page enabling with per-page faults served without the lock.
//! The V8 engine profile adds periodic stop-the-world pauses, each parking
//! and unparking every worker (visible as context switches, as in the
//! paper's figure 5b).

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Kernel rwsem optimistic-spin window: waits shorter than this spin
/// instead of sleeping (no context switch).
const SPIN_THRESHOLD_NS: u64 = 3_000;

/// Memory-management behavior per bounds strategy (how `lb-core` actually
/// implements them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimStrategy {
    /// Software checks or no checks: plain `mmap`/`munmap` per isolate;
    /// check costs inflate `compute_ns` upstream.
    Plain,
    /// `PROT_NONE` reservation + `mprotect` to enable pages (+ shootdowns).
    Mprotect,
    /// Lazy RW reservation + userfaultfd: per-page faults, no exclusive lock.
    Uffd,
}

impl SimStrategy {
    /// Map a real strategy name.
    pub fn parse(s: &str) -> Option<SimStrategy> {
        Some(match s {
            "none" | "clamp" | "trap" => SimStrategy::Plain,
            "mprotect" => SimStrategy::Mprotect,
            "uffd" => SimStrategy::Uffd,
            _ => return None,
        })
    }
}

/// Simulation parameters. Cost defaults are calibrated against syscall
/// microbenchmarks on the development host (see `lb-bench`'s ablations).
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// Simulated hardware threads (the paper's machines have 16).
    pub cores: usize,
    /// Worker (isolate) threads.
    pub threads: usize,
    /// Iterations per thread.
    pub iters: u32,
    /// Pure compute time per iteration, ns.
    pub compute_ns: u64,
    /// Committed wasm pages per isolate (drives fault/mprotect volume).
    pub pages: u64,
    /// Strategy under test.
    pub strategy: SimStrategy,
    /// V8-style engine: periodic stop-the-world pauses.
    pub v8_pauses: bool,
    /// `mmap` hold time, ns.
    pub mmap_ns: u64,
    /// `munmap` hold time, ns (includes its shootdown base).
    pub munmap_ns: u64,
    /// `mprotect` hold time, ns, excluding IPIs.
    pub mprotect_ns: u64,
    /// Per-recipient TLB-shootdown IPI cost, ns (paid while holding).
    pub ipi_ns: u64,
    /// userfaultfd register/unregister ioctl hold time, ns.
    pub uffd_register_ns: u64,
    /// Per-page fault service time (SIGBUS + UFFDIO_ZEROPAGE), ns.
    pub uffd_fault_ns: u64,
    /// Minor-fault cost per first-touch page for non-uffd strategies, ns.
    pub minor_fault_ns: u64,
    /// GC pause period, ns (V8 profile).
    pub gc_period_ns: u64,
    /// GC pause length, ns.
    pub gc_pause_ns: u64,
}

impl SimParams {
    /// Defaults matching the paper's machine shape: 16 cores, costs from
    /// host microbenchmarks.
    pub fn new(strategy: SimStrategy, threads: usize, compute_ns: u64) -> SimParams {
        SimParams {
            cores: 16,
            threads,
            iters: 50,
            compute_ns,
            pages: 16,
            strategy,
            v8_pauses: false,
            mmap_ns: 1_000,
            munmap_ns: 2_000,
            mprotect_ns: 2_000,
            ipi_ns: 200,
            uffd_register_ns: 1_500,
            uffd_fault_ns: 1_800,
            minor_fault_ns: 350,
            gc_period_ns: 10_000_000,
            gc_pause_ns: 300_000,
        }
    }
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total simulated wall time, ns.
    pub wall_ns: u64,
    /// Per-thread iteration times, ns.
    pub iter_ns: Vec<Vec<u64>>,
    /// Context switches (blocking on the lock, GC park/unpark).
    pub ctx_switches: u64,
    /// Sum of busy thread time, ns.
    pub busy_ns: u64,
    /// Time spent waiting for the mmap lock, summed over threads, ns.
    pub lock_wait_ns: u64,
}

impl SimResult {
    /// CPU utilisation in percent-of-one-core (100 × busy / wall), the
    /// paper's rescaled metric (1600% = 16 busy cores).
    pub fn utilization_pct(&self) -> f64 {
        100.0 * self.busy_ns as f64 / self.wall_ns as f64
    }

    /// Median iteration time over all threads, ns.
    pub fn median_iter_ns(&self) -> u64 {
        let mut all: Vec<u64> = self.iter_ns.iter().flatten().copied().collect();
        all.sort_unstable();
        all[all.len() / 2]
    }

    /// Aggregate throughput, iterations per simulated second.
    pub fn iters_per_sec(&self) -> f64 {
        let n: usize = self.iter_ns.iter().map(|v| v.len()).sum();
        n as f64 * 1e9 / self.wall_ns as f64
    }

    /// Context switches per simulated second.
    pub fn ctxt_per_sec(&self) -> f64 {
        self.ctx_switches as f64 * 1e9 / self.wall_ns as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SetupLock,
    Compute,
    TeardownLock,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    LockDone(usize),
    ComputeDone(usize),
    GcStart,
    GcEnd,
}

struct Thread {
    phase: Phase,
    iters_left: u32,
    iter_started: u64,
    times: Vec<u64>,
    blocked_since: Option<u64>,
    done: bool,
}

struct Sim<'p> {
    p: &'p SimParams,
    threads: Vec<Thread>,
    events: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    now: u64,
    seq: u64,
    lock_holder: Option<usize>,
    lock_queue: VecDeque<usize>,
    ctx_switches: u64,
    busy_ns: u64,
    lock_wait_ns: u64,
    gc_pauses: u64,
}

impl Sim<'_> {
    fn active(&self) -> usize {
        self.threads.iter().filter(|t| !t.done).count()
    }

    fn setup_hold(&self) -> u64 {
        let active = self.active();
        match self.p.strategy {
            SimStrategy::Plain => self.p.mmap_ns,
            SimStrategy::Mprotect => {
                self.p.mmap_ns
                    + self.p.mprotect_ns
                    + self.p.ipi_ns * active.saturating_sub(1) as u64
            }
            SimStrategy::Uffd => self.p.mmap_ns + self.p.uffd_register_ns,
        }
    }

    fn teardown_hold(&self) -> u64 {
        let active = self.active();
        match self.p.strategy {
            // Unmapping mprotect-enabled writable pages forces a TLB
            // shootdown round; lazily-touched plain/uffd reservations are
            // mostly clean.
            SimStrategy::Mprotect => {
                self.p.munmap_ns + self.p.ipi_ns * active.saturating_sub(1) as u64
            }
            _ => self.p.munmap_ns,
        }
    }

    fn compute_time(&self) -> u64 {
        let extra = match self.p.strategy {
            SimStrategy::Uffd => self.p.pages * self.p.uffd_fault_ns,
            _ => self.p.pages * self.p.minor_fault_ns,
        };
        self.p.compute_ns + extra
    }

    fn push(&mut self, t: u64, e: Ev) {
        self.seq += 1;
        self.events.push(Reverse((t, self.seq, e)));
    }

    fn hold_for(&self, tid: usize) -> u64 {
        match self.threads[tid].phase {
            Phase::SetupLock => self.setup_hold(),
            Phase::TeardownLock => self.teardown_hold(),
            Phase::Compute => unreachable!("compute does not hold the lock"),
        }
    }

    fn request_lock(&mut self, tid: usize) {
        if self.lock_holder.is_none() && self.lock_queue.is_empty() {
            self.lock_holder = Some(tid);
            let hold = self.hold_for(tid);
            self.busy_ns += hold;
            self.push(self.now + hold, Ev::LockDone(tid));
        } else {
            self.threads[tid].blocked_since = Some(self.now);
            self.lock_queue.push_back(tid);
        }
    }

    fn run(&mut self) {
        if self.p.v8_pauses {
            self.push(self.p.gc_period_ns, Ev::GcStart);
        }
        for tid in 0..self.p.threads {
            self.threads[tid].iter_started = 0;
            self.request_lock(tid);
        }
        while let Some(Reverse((t, _, ev))) = self.events.pop() {
            self.now = t;
            match ev {
                Ev::GcStart => {
                    for th in &self.threads {
                        if !th.done && th.blocked_since.is_none() {
                            self.ctx_switches += 2;
                        }
                    }
                    self.gc_pauses += 1;
                    self.push(self.now + self.p.gc_pause_ns, Ev::GcEnd);
                }
                Ev::GcEnd => {
                    self.push(self.now + self.p.gc_period_ns, Ev::GcStart);
                }
                Ev::LockDone(tid) => self.on_lock_done(tid),
                Ev::ComputeDone(tid) => {
                    self.threads[tid].phase = Phase::TeardownLock;
                    self.request_lock(tid);
                }
            }
            if self.threads.iter().all(|t| t.done) {
                break;
            }
        }
    }

    fn on_lock_done(&mut self, tid: usize) {
        debug_assert_eq!(self.lock_holder, Some(tid));
        self.lock_holder = None;
        if let Some(next) = self.lock_queue.pop_front() {
            let since = self.threads[next]
                .blocked_since
                .take()
                .expect("queued thread was blocked");
            let waited = self.now - since;
            self.lock_wait_ns += waited;
            // rwsem waiters spin briefly before sleeping; only long waits
            // are real context switches (sleep + wake).
            if waited > SPIN_THRESHOLD_NS {
                self.ctx_switches += 2;
            }
            self.lock_holder = Some(next);
            let hold = self.hold_for(next);
            self.busy_ns += hold;
            self.push(self.now + hold, Ev::LockDone(next));
        }
        match self.threads[tid].phase {
            Phase::SetupLock => {
                self.threads[tid].phase = Phase::Compute;
                let dur = self.compute_time();
                self.busy_ns += dur;
                self.push(self.now + dur, Ev::ComputeDone(tid));
            }
            Phase::TeardownLock => {
                let it = self.now - self.threads[tid].iter_started;
                self.threads[tid].times.push(it);
                self.threads[tid].iters_left -= 1;
                if self.threads[tid].iters_left == 0 {
                    self.threads[tid].done = true;
                } else {
                    self.threads[tid].iter_started = self.now;
                    self.threads[tid].phase = Phase::SetupLock;
                    self.request_lock(tid);
                }
            }
            Phase::Compute => unreachable!(),
        }
    }
}

/// Run the simulation.
///
/// # Panics
/// Panics on zero threads/iterations or more workers than cores (the
/// paper pins workers 1:1 to hardware threads).
pub fn simulate(p: &SimParams) -> SimResult {
    assert!(p.threads > 0 && p.iters > 0);
    assert!(
        p.threads <= p.cores,
        "model assumes one core per worker (the paper pins 1:1)"
    );
    let mut sim = Sim {
        p,
        threads: (0..p.threads)
            .map(|_| Thread {
                phase: Phase::SetupLock,
                iters_left: p.iters,
                iter_started: 0,
                times: Vec::with_capacity(p.iters as usize),
                blocked_since: None,
                done: false,
            })
            .collect(),
        events: BinaryHeap::new(),
        now: 0,
        seq: 0,
        lock_holder: None,
        lock_queue: VecDeque::new(),
        ctx_switches: 0,
        busy_ns: 0,
        lock_wait_ns: 0,
        gc_pauses: 0,
    };
    sim.run();
    // Each stop-the-world pause stalls every worker for its duration:
    // account it as pure wall-time extension (workers idle).
    let stall = sim.gc_pauses * p.gc_pause_ns;
    SimResult {
        wall_ns: (sim.now + stall).max(1),
        iter_ns: sim.threads.into_iter().map(|t| t.times).collect(),
        ctx_switches: sim.ctx_switches,
        busy_ns: sim.busy_ns,
        lock_wait_ns: sim.lock_wait_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(strategy: SimStrategy, threads: usize, compute_us: u64) -> SimResult {
        let mut p = SimParams::new(strategy, threads, compute_us * 1000);
        p.iters = 40;
        simulate(&p)
    }

    #[test]
    fn single_thread_has_no_contention() {
        let r = run(SimStrategy::Mprotect, 1, 100);
        assert_eq!(r.ctx_switches, 0);
        assert_eq!(r.lock_wait_ns, 0);
        assert_eq!(r.iter_ns[0].len(), 40);
    }

    #[test]
    fn mprotect_scales_worse_than_uffd_at_16_threads() {
        // Short-running iterations, like the paper's PolybenchC isolates.
        let mp = run(SimStrategy::Mprotect, 16, 50);
        let uf = run(SimStrategy::Uffd, 16, 50);
        assert!(
            mp.iters_per_sec() < uf.iters_per_sec(),
            "mprotect {} vs uffd {} iters/s",
            mp.iters_per_sec(),
            uf.iters_per_sec()
        );
        assert!(mp.lock_wait_ns > uf.lock_wait_ns * 2);
    }

    #[test]
    fn mprotect_utilization_drops_at_scale() {
        let mp1 = run(SimStrategy::Mprotect, 1, 50);
        let mp16 = run(SimStrategy::Mprotect, 16, 50);
        let per_core_16 = mp16.utilization_pct() / 16.0;
        let per_core_1 = mp1.utilization_pct();
        assert!(
            per_core_16 < per_core_1 * 0.9,
            "16-thread mprotect per-core utilization {per_core_16:.0}% vs 1-thread {per_core_1:.0}%"
        );
        let uf16 = run(SimStrategy::Uffd, 16, 50);
        assert!(uf16.utilization_pct() / 16.0 > per_core_16);
    }

    #[test]
    fn long_compute_hides_contention() {
        // The paper: the locking effect is "significantly more visible in
        // short-running benchmarks".
        let short_mp = run(SimStrategy::Mprotect, 16, 20);
        let short_uf = run(SimStrategy::Uffd, 16, 20);
        let long_mp = run(SimStrategy::Mprotect, 16, 5000);
        let long_uf = run(SimStrategy::Uffd, 16, 5000);
        let short_penalty = short_uf.iters_per_sec() / short_mp.iters_per_sec();
        let long_penalty = long_uf.iters_per_sec() / long_mp.iters_per_sec();
        assert!(
            short_penalty > long_penalty,
            "short {short_penalty:.2} vs long {long_penalty:.2}"
        );
    }

    #[test]
    fn v8_pauses_add_context_switches() {
        let mut p = SimParams::new(SimStrategy::Mprotect, 8, 200_000);
        p.iters = 60;
        let quiet = simulate(&p);
        p.v8_pauses = true;
        let noisy = simulate(&p);
        assert!(
            noisy.ctx_switches > quiet.ctx_switches + 10,
            "GC pauses must inflate switches ({} vs {})",
            noisy.ctx_switches,
            quiet.ctx_switches
        );
    }

    #[test]
    fn plain_strategy_is_light() {
        let pl = run(SimStrategy::Plain, 16, 50);
        let mp = run(SimStrategy::Mprotect, 16, 50);
        assert!(pl.lock_wait_ns < mp.lock_wait_ns);
        assert_eq!(SimStrategy::parse("trap"), Some(SimStrategy::Plain));
        assert_eq!(SimStrategy::parse("uffd"), Some(SimStrategy::Uffd));
        assert_eq!(SimStrategy::parse("weird"), None);
    }
}

#[cfg(test)]
mod proptests {
    //! Randomized invariant checks on a deterministic SplitMix64 stream
    //! (offline build — no proptest; fixed seeds keep failures
    //! reproducible).

    use super::*;

    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi)`.
        fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next_u64() % (hi - lo)
        }
    }

    /// The simulator conserves work: every thread completes exactly its
    /// iterations, wall time is at least the critical path, and busy
    /// time never exceeds cores × wall.
    #[test]
    fn conservation_invariants() {
        let mut rng = Rng(0x51A_C0DE);
        for _ in 0..32 {
            let threads = rng.in_range(1, 16) as usize;
            let iters = rng.in_range(1, 30) as u32;
            let compute_us = rng.in_range(1, 500);
            let strategy = [SimStrategy::Plain, SimStrategy::Mprotect, SimStrategy::Uffd]
                [rng.in_range(0, 3) as usize];
            let mut p = SimParams::new(strategy, threads, compute_us * 1000);
            p.iters = iters;
            let r = simulate(&p);
            let ctx = format!("threads={threads} iters={iters} compute_us={compute_us}");
            assert_eq!(r.iter_ns.len(), threads, "{ctx}");
            for t in &r.iter_ns {
                assert_eq!(t.len(), iters as usize, "{ctx}");
            }
            // Wall ≥ one thread's serial work.
            let per_iter_min = p.compute_ns;
            assert!(r.wall_ns >= u64::from(iters) * per_iter_min, "{ctx}");
            // Busy time fits on the machine.
            assert!(r.busy_ns <= r.wall_ns * p.cores as u64 + 1, "{ctx}");
            // Iteration times are at least the compute time.
            for t in r.iter_ns.iter().flatten() {
                assert!(*t >= per_iter_min, "{ctx}");
            }
        }
    }

    /// Adding threads never reduces aggregate throughput.
    #[test]
    fn throughput_is_monotone_in_threads() {
        let mut rng = Rng(0x740_90CE);
        for _ in 0..32 {
            let compute_us = rng.in_range(20, 500);
            let mut last = 0.0;
            for threads in [1usize, 2, 4, 8] {
                let mut p = SimParams::new(SimStrategy::Uffd, threads, compute_us * 1000);
                p.iters = 30;
                let r = simulate(&p);
                let tput = r.iters_per_sec();
                assert!(
                    tput >= last * 0.99,
                    "{threads} threads (compute_us={compute_us}): {tput} < {last}"
                );
                last = tput;
            }
        }
    }
}
