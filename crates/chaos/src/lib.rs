//! # lb-chaos — deterministic fault injection for fallible OS boundaries
//!
//! The paper's headline mechanism — `userfaultfd`/SIGBUS lazily-populated
//! linear memory — lives or dies on syscalls that routinely fail in the
//! wild: `userfaultfd(2)` is EPERM'd in most containers (and gated behind
//! `vm.unprivileged_userfaultfd` since Linux 5.11), `mmap` of an 8 GiB
//! reservation can exhaust address space, `mprotect` can hit ENOMEM on a
//! VMA split. This crate makes those failures *reproducible*: every
//! fallible OS call site in `lb-core` is a named [fault point](SITES) that
//! consults a process-wide injection [`Plan`] before issuing the real
//! syscall, so graceful-degradation paths (strategy fallback chains, clean
//! `memory.grow` failure, pool reset failure) can be exercised
//! deterministically in tests and benchmark campaigns.
//!
//! # The `LB_FAULTS` spec
//!
//! A plan is a `;`-separated list of directives:
//!
//! ```text
//! site[:mode]:errno
//! ```
//!
//! * `site` — a fault-point name from [`SITES`] (e.g. `core.uffd.create`),
//!   or a prefix wildcard like `core.uffd.*`.
//! * `mode` — when the directive fires:
//!   * omitted — every consultation fires;
//!   * `N` (an integer) — one-shot: fire exactly on the `N`th
//!     consultation of the site (1-based);
//!   * `rate=P` — fire with probability `P` per consultation, drawn from
//!     a seeded SplitMix64 stream (deterministic for a given seed and
//!     consultation sequence).
//! * `errno` — a symbolic errno name (`EPERM`, `ENOMEM`, `EAGAIN`, …).
//!
//! A `seed=N` directive sets the SplitMix64 seed (default 0); the
//! `LB_FAULTS_SEED` environment variable does the same.
//!
//! Examples:
//!
//! ```text
//! LB_FAULTS=core.uffd.create:1:EPERM          # container-style uffd denial, once
//! LB_FAULTS=core.mprotect.grow:rate=0.01:ENOMEM;seed=7
//! LB_FAULTS=core.uffd.*:EAGAIN                # everything uffd, always
//! ```
//!
//! # Overhead and safety
//!
//! With no plan installed, [`inject_raw`] is a single relaxed atomic load
//! and a branch — the instrumented syscall sites are not hot paths
//! (reservation setup, grow, fault service), so unset cost is negligible.
//! With a plan installed, consultation is: pointer load, per-directive
//! site compare, one `fetch_add` — no allocation, no locks. That makes it
//! **async-signal-safe**, which matters because `core.uffd.copy` is also
//! consulted from the SIGBUS handler's zeropage path. Fires are recorded
//! through pre-registered `lb-telemetry` counters (`chaos.fired` plus
//! `chaos.fired.<site>`), registered at plan-install time in normal
//! context.

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The fault-point catalog: every named injection site wired into the
/// runtime. The chaos-matrix test iterates this list; [`Plan::parse`]
/// rejects sites not in it (typo protection), except wildcards.
pub const SITES: &[&str] = &[
    "core.mmap.reserve",    // mmap of a linear-memory reservation
    "core.mprotect.init",   // mprotect enabling the initial committed pages
    "core.mprotect.grow",   // mprotect extending the committed range on grow
    "core.uffd.create",     // userfaultfd(2) fd creation + API handshake
    "core.uffd.register",   // UFFDIO_REGISTER of the reservation
    "core.uffd.copy",       // UFFDIO_ZEROPAGE population (host and in-handler)
    "core.madvise.discard", // madvise(MADV_DONTNEED) when recycling memory
    "core.pool.reset",      // pooled-memory reset on release to the free-list
    "serve.dispatch",       // lb-serve shard worker dispatching a request
    "serve.queue_full",     // lb-serve admission: forces the queue-full path
];

/// Telemetry counter names for per-site fire counts, index-aligned with
/// [`SITES`] (counter registration requires `&'static str`).
const SITE_COUNTERS: &[&str] = &[
    "chaos.fired.core.mmap.reserve",
    "chaos.fired.core.mprotect.init",
    "chaos.fired.core.mprotect.grow",
    "chaos.fired.core.uffd.create",
    "chaos.fired.core.uffd.register",
    "chaos.fired.core.uffd.copy",
    "chaos.fired.core.madvise.discard",
    "chaos.fired.core.pool.reset",
    "chaos.fired.serve.dispatch",
    "chaos.fired.serve.queue_full",
];

/// Symbolic errno values supported in specs, as (name, value) pairs.
/// Values are the x86-64 Linux ABI constants; `lb-chaos` cannot depend on
/// the libc shim (it sits below `lb-core` in the crate graph).
const ERRNOS: &[(&str, i32)] = &[
    ("EPERM", 1),
    ("EIO", 5),
    ("EAGAIN", 11),
    ("ENOMEM", 12),
    ("EACCES", 13),
    ("EBUSY", 16),
    ("EEXIST", 17),
    ("EINVAL", 22),
    ("ENOSPC", 28),
    ("ENOSYS", 38),
];

/// Translate a symbolic errno name to its value.
pub fn errno_by_name(name: &str) -> Option<i32> {
    ERRNOS.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// A malformed `LB_FAULTS` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad LB_FAULTS spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// When a directive fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Every consultation.
    Always,
    /// Exactly the nth consultation (1-based), once.
    Nth(u64),
    /// Probability per consultation from the seeded stream.
    Rate(f64),
}

/// One parsed `site[:mode]:errno` directive plus its live counters.
#[derive(Debug)]
struct Directive {
    /// Site name or `prefix.*` wildcard.
    site: String,
    wildcard: bool,
    mode: Mode,
    errno: i32,
    /// Consultations of this directive so far (drives `Nth`).
    hits: AtomicU64,
    /// Per-directive SplitMix64 stream state (drives `Rate`).
    rng: AtomicU64,
}

impl Directive {
    fn matches(&self, site: &str) -> bool {
        if self.wildcard {
            site.as_bytes().starts_with(self.site.as_bytes())
        } else {
            site == self.site
        }
    }

    /// One consultation: does this directive fire? Lock- and
    /// allocation-free (async-signal-safe).
    fn roll(&self) -> bool {
        let n = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        match self.mode {
            Mode::Always => true,
            Mode::Nth(k) => n == k,
            Mode::Rate(p) => {
                // Advance the per-directive SplitMix64 stream atomically;
                // concurrent rollers each take a distinct state, so the
                // *set* of draws is deterministic for a given seed even if
                // thread interleaving varies.
                let s = self.rng.fetch_add(SPLITMIX_GAMMA, Ordering::Relaxed);
                let u = splitmix64_mix(s.wrapping_add(SPLITMIX_GAMMA));
                ((u >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
            }
        }
    }
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded SplitMix64 stream — the same generator the `Rate` directives
/// draw from, exported so test harnesses across the workspace share one
/// deterministic RNG instead of growing private copies.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Start a stream at `seed`. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(SPLITMIX_GAMMA);
        splitmix64_mix(self.0)
    }

    /// Uniform draw in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A parsed injection plan: an ordered set of [`Directive`]s sharing a
/// seed. Normally installed process-wide (from `LB_FAULTS` or
/// [`install`]); standalone plans support deterministic unit testing via
/// [`Plan::check`].
#[derive(Debug)]
pub struct Plan {
    directives: Vec<Directive>,
    seed: u64,
}

impl Plan {
    /// Parse a spec string (see the module docs for the grammar).
    ///
    /// # Errors
    /// Unknown sites, unknown errno names, malformed modes.
    pub fn parse(spec: &str) -> Result<Plan, SpecError> {
        let mut seed = 0u64;
        let mut raw: Vec<(String, bool, Mode, i32)> = Vec::new();
        for directive in spec.split(';').map(str::trim).filter(|d| !d.is_empty()) {
            if let Some(s) = directive.strip_prefix("seed=") {
                seed = s
                    .parse()
                    .map_err(|_| SpecError(format!("bad seed `{s}`")))?;
                continue;
            }
            let parts: Vec<&str> = directive.split(':').collect();
            let (site, mode, errno) = match parts.len() {
                2 => (parts[0], Mode::Always, parts[1]),
                3 => {
                    let mode = if let Some(p) = parts[1].strip_prefix("rate=") {
                        let p: f64 = p
                            .parse()
                            .map_err(|_| SpecError(format!("bad rate in `{directive}`")))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(SpecError(format!("rate out of [0,1] in `{directive}`")));
                        }
                        Mode::Rate(p)
                    } else {
                        let n: u64 = parts[1]
                            .parse()
                            .map_err(|_| SpecError(format!("bad nth in `{directive}`")))?;
                        if n == 0 {
                            return Err(SpecError(format!("nth is 1-based in `{directive}`")));
                        }
                        Mode::Nth(n)
                    };
                    (parts[0], mode, parts[2])
                }
                _ => return Err(SpecError(format!("`{directive}` is not site[:mode]:errno"))),
            };
            let wildcard = site.ends_with('*');
            let site_key = if wildcard {
                site.trim_end_matches('*').to_string()
            } else {
                if !SITES.contains(&site) {
                    return Err(SpecError(format!("unknown fault point `{site}`")));
                }
                site.to_string()
            };
            let errno = errno_by_name(errno)
                .ok_or_else(|| SpecError(format!("unknown errno `{errno}` in `{directive}`")))?;
            raw.push((site_key, wildcard, mode, errno));
        }
        let directives = raw
            .into_iter()
            .enumerate()
            .map(|(i, (site, wildcard, mode, errno))| Directive {
                site,
                wildcard,
                mode,
                errno,
                hits: AtomicU64::new(0),
                // Per-directive stream: seed ⊕ index keeps directives
                // independent but jointly deterministic.
                rng: AtomicU64::new(splitmix64_mix(seed ^ (i as u64).wrapping_mul(0x9E37))),
            })
            .collect();
        Ok(Plan { directives, seed })
    }

    /// Override the seed (re-seeds all `rate` streams; `nth` counters are
    /// untouched).
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        for (i, d) in self.directives.iter_mut().enumerate() {
            *d.rng.get_mut() = splitmix64_mix(seed ^ (i as u64).wrapping_mul(0x9E37));
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of directives.
    pub fn len(&self) -> usize {
        self.directives.len()
    }

    /// Whether the plan has no directives.
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// Consult the plan for `site`: `Some(errno)` if a directive fires.
    /// First matching-and-firing directive wins. Async-signal-safe.
    pub fn check(&self, site: &str) -> Option<i32> {
        for d in &self.directives {
            if d.matches(site) && d.roll() {
                return Some(d.errno);
            }
        }
        None
    }
}

// ── process-wide plan ────────────────────────────────────────────────────

/// Fast gate: false ⇒ no plan ever installed ⇒ `inject_raw` is one load.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The live plan (leaked box; swapped under `INSTALL_LOCK`).
static PLAN: AtomicPtr<Plan> = AtomicPtr::new(std::ptr::null_mut());
/// Serializes installs so scoped guards nest correctly across tests.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());
static ENV_INIT: OnceLock<()> = OnceLock::new();

struct FireCounters {
    total: lb_telemetry::Counter,
    per_site: Vec<(&'static str, lb_telemetry::Counter)>,
}

/// Pre-registered fire counters (registration takes a lock, so it happens
/// at install time in normal context; increments are signal-safe).
fn fire_counters() -> &'static FireCounters {
    static C: OnceLock<FireCounters> = OnceLock::new();
    C.get_or_init(|| FireCounters {
        total: lb_telemetry::counter("chaos.fired"),
        per_site: SITES
            .iter()
            .zip(SITE_COUNTERS)
            .map(|(&s, &c)| (s, lb_telemetry::counter(c)))
            .collect(),
    })
}

/// Parse `LB_FAULTS` / `LB_FAULTS_SEED` once and install the resulting
/// plan. Called lazily by [`inject_raw`]'s slow path and eagerly by
/// `lb-core`'s handler installation; idempotent. A malformed spec is
/// reported to stderr once and ignored (an injection layer must never be
/// the thing that crashes the process).
pub fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        let Ok(spec) = std::env::var("LB_FAULTS") else {
            return;
        };
        if spec.is_empty() {
            return;
        }
        match Plan::parse(&spec) {
            Ok(mut plan) => {
                if let Ok(seed) = std::env::var("LB_FAULTS_SEED") {
                    if let Ok(seed) = seed.parse() {
                        plan.reseed(seed);
                    }
                }
                let _guard = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                install_plan(plan);
            }
            Err(e) => eprintln!("lb-chaos: ignoring LB_FAULTS: {e}"),
        }
    });
}

/// Swap in `plan` (caller holds `INSTALL_LOCK`); returns the previous
/// pointer. The old plan is intentionally leaked: a signal handler may
/// still be reading it, and plans are tiny and installed O(1) times.
fn install_plan(plan: Plan) -> *mut Plan {
    fire_counters();
    let new = Box::into_raw(Box::new(plan));
    let old = PLAN.swap(new, Ordering::Release);
    ARMED.store(true, Ordering::Release);
    old
}

/// A scoped plan installation for tests; restores the previous plan on
/// drop. Holds a global lock, serializing chaos-using tests against each
/// other.
pub struct ChaosGuard {
    prev: *mut Plan,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        // ARMED stays set even when restoring a null plan: a concurrent
        // signal handler may race the store, and inject_raw's null check
        // keeps the armed-but-empty state correct.
        PLAN.swap(self.prev, Ordering::Release);
    }
}

/// Install a plan for the lifetime of the returned guard (tests). The
/// guard serializes concurrent installers via a global lock.
///
/// # Errors
/// Propagates parse failures.
pub fn install(spec: &str) -> Result<ChaosGuard, SpecError> {
    let plan = Plan::parse(spec)?;
    let lock = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = install_plan(plan);
    Ok(ChaosGuard { prev, _lock: lock })
}

/// Consult the process-wide plan for `site`: `Some(errno)` when an
/// injected fault fires. Async-signal-safe after the first (normal-
/// context) call: the fast path is one relaxed load; the fire path is
/// atomic increments on pre-registered telemetry counters.
#[inline]
pub fn inject_raw(site: &str) -> Option<i32> {
    if !ARMED.load(Ordering::Acquire) {
        // One-time env parse happens lazily but only in normal context —
        // the first consultation of any site is always from a constructor
        // or an explicitly-armed test, never a signal handler.
        init_from_env();
        if !ARMED.load(Ordering::Acquire) {
            return None;
        }
    }
    let plan = PLAN.load(Ordering::Acquire);
    if plan.is_null() {
        return None;
    }
    // SAFETY: installed plans are leaked, so the pointer is valid forever.
    let errno = unsafe { (*plan).check(site) }?;
    let c = fire_counters();
    c.total.inc();
    if let Some((_, ctr)) = c.per_site.iter().find(|(s, _)| *s == site) {
        ctr.inc();
    }
    Some(errno)
}

/// [`inject_raw`] wrapped as an `io::Error` for `Result` call sites.
#[inline]
pub fn inject(site: &str) -> Option<std::io::Error> {
    inject_raw(site).map(std::io::Error::from_raw_os_error)
}

/// Whether any plan is installed (used by tests and diagnostics).
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire) && !PLAN.load(Ordering::Acquire).is_null()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage() {
        assert!(Plan::parse("nonsense").is_err());
        assert!(Plan::parse("core.mmap.reserve:EWHAT").is_err());
        assert!(Plan::parse("not.a.site:1:EPERM").is_err());
        assert!(
            Plan::parse("core.mmap.reserve:0:EPERM").is_err(),
            "nth is 1-based"
        );
        assert!(Plan::parse("core.mmap.reserve:rate=1.5:EPERM").is_err());
        assert!(Plan::parse("seed=x").is_err());
    }

    #[test]
    fn always_mode_fires_every_time() {
        let p = Plan::parse("core.uffd.create:EPERM").unwrap();
        for _ in 0..5 {
            assert_eq!(p.check("core.uffd.create"), Some(1));
        }
        assert_eq!(p.check("core.uffd.register"), None);
    }

    #[test]
    fn nth_mode_is_one_shot() {
        let p = Plan::parse("core.mmap.reserve:3:ENOMEM").unwrap();
        assert_eq!(p.check("core.mmap.reserve"), None);
        assert_eq!(p.check("core.mmap.reserve"), None);
        assert_eq!(p.check("core.mmap.reserve"), Some(12));
        assert_eq!(p.check("core.mmap.reserve"), None);
    }

    #[test]
    fn wildcard_matches_prefix() {
        let p = Plan::parse("core.uffd.*:EAGAIN").unwrap();
        assert_eq!(p.check("core.uffd.create"), Some(11));
        assert_eq!(p.check("core.uffd.copy"), Some(11));
        assert_eq!(p.check("core.mmap.reserve"), None);
    }

    #[test]
    fn rate_stream_is_seed_deterministic() {
        let fire_pattern = |seed: u64| -> Vec<bool> {
            let mut p = Plan::parse("core.uffd.copy:rate=0.5:EAGAIN").unwrap();
            p.reseed(seed);
            (0..256)
                .map(|_| p.check("core.uffd.copy").is_some())
                .collect()
        };
        let a = fire_pattern(42);
        let b = fire_pattern(42);
        assert_eq!(a, b, "same seed ⇒ same fire pattern");
        let c = fire_pattern(43);
        assert_ne!(a, c, "different seed ⇒ different pattern");
        let fires = a.iter().filter(|&&f| f).count();
        assert!(
            (64..=192).contains(&fires),
            "rate=0.5 should fire roughly half the time, got {fires}/256"
        );
    }

    #[test]
    fn multiple_directives_first_fire_wins() {
        let p = Plan::parse("core.mmap.reserve:2:ENOMEM;core.mmap.reserve:EPERM;seed=1").unwrap();
        // Directive order: the nth directive is consulted first but does
        // not fire on hit 1, so the always directive provides EPERM.
        assert_eq!(p.check("core.mmap.reserve"), Some(1));
        // Hit 2: nth fires first.
        assert_eq!(p.check("core.mmap.reserve"), Some(12));
        assert_eq!(p.check("core.mmap.reserve"), Some(1));
    }

    #[test]
    fn scoped_install_fires_and_restores() {
        {
            let _g = install("core.uffd.create:EPERM").unwrap();
            assert!(armed());
            let e = inject("core.uffd.create").expect("fires");
            assert_eq!(e.raw_os_error(), Some(1));
            assert!(inject("core.mmap.reserve").is_none());
        }
        assert!(inject_raw("core.uffd.create").is_none(), "guard restored");
    }

    #[test]
    fn fires_are_counted_in_telemetry() {
        let before = lb_telemetry::snapshot();
        {
            let _g = install("core.mprotect.grow:ENOMEM").unwrap();
            assert!(inject_raw("core.mprotect.grow").is_some());
            assert!(inject_raw("core.mprotect.grow").is_some());
        }
        let d = lb_telemetry::snapshot().delta_since(&before);
        assert_eq!(d.counter("chaos.fired.core.mprotect.grow"), 2);
        assert!(d.counter("chaos.fired") >= 2);
    }

    #[test]
    fn errno_table() {
        assert_eq!(errno_by_name("EPERM"), Some(1));
        assert_eq!(errno_by_name("ENOMEM"), Some(12));
        assert_eq!(errno_by_name("EBOGUS"), None);
    }
}
