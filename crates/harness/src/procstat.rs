//! `/proc` samplers reproducing the paper's system metrics:
//!
//! * CPU utilisation per eq. (1): `(us+sys+hi+si) / (us+sys+hi+si+id)`,
//!   rescaled so 100% = one fully-busy core (§4.2.1);
//! * context switches per second from `/proc/stat`'s `ctxt` line (§4.2.2);
//! * memory usage as `MemTotal − MemAvailable` from `/proc/meminfo` (§4.3).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One parse of `/proc/stat`'s aggregate cpu line plus the ctxt counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice (jiffies).
    pub user: u64,
    /// kernel time.
    pub system: u64,
    /// hard irq time.
    pub irq: u64,
    /// soft irq time.
    pub softirq: u64,
    /// idle + iowait.
    pub idle: u64,
    /// Total context switches since boot.
    pub ctxt: u64,
}

impl CpuTimes {
    /// Busy jiffies per the paper's formula.
    pub fn busy(&self) -> u64 {
        self.user + self.system + self.irq + self.softirq
    }

    /// All accounted jiffies.
    pub fn total(&self) -> u64 {
        self.busy() + self.idle
    }
}

/// Read `/proc/stat`.
pub fn read_cpu_times() -> CpuTimes {
    let s = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_cpu_times(&s)
}

fn parse_cpu_times(s: &str) -> CpuTimes {
    let mut t = CpuTimes::default();
    for line in s.lines() {
        if let Some(rest) = line.strip_prefix("cpu ") {
            let f: Vec<u64> = rest
                .split_whitespace()
                .map(|x| x.parse().unwrap_or(0))
                .collect();
            // user nice system idle iowait irq softirq steal ...
            t.user = f.first().copied().unwrap_or(0) + f.get(1).copied().unwrap_or(0);
            t.system = f.get(2).copied().unwrap_or(0);
            t.idle = f.get(3).copied().unwrap_or(0) + f.get(4).copied().unwrap_or(0);
            t.irq = f.get(5).copied().unwrap_or(0);
            t.softirq = f.get(6).copied().unwrap_or(0);
        } else if let Some(rest) = line.strip_prefix("ctxt ") {
            t.ctxt = rest.trim().parse().unwrap_or(0);
        }
    }
    t
}

/// This process's resident set size in bytes (`VmRSS` in
/// `/proc/self/status`) — a per-process complement to the system-wide
/// metric, useful inside containers where `MemAvailable` is noisy.
pub fn read_self_rss() -> u64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in s.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
                * 1024;
        }
    }
    0
}

/// Used memory in bytes: `MemTotal − MemAvailable`.
pub fn read_mem_used() -> u64 {
    let s = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    parse_mem_used(&s)
}

fn parse_mem_used(s: &str) -> u64 {
    let mut total = 0u64;
    let mut avail = 0u64;
    for line in s.lines() {
        let grab = |l: &str| -> u64 {
            l.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
                * 1024
        };
        if line.starts_with("MemTotal:") {
            total = grab(line);
        } else if line.starts_with("MemAvailable:") {
            avail = grab(line);
        }
    }
    total.saturating_sub(avail)
}

/// Aggregated system statistics over a measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SysStats {
    /// CPU utilisation in percent of one core (100 = one busy core,
    /// 1600 = sixteen, as the paper rescales).
    pub cpu_util_pct: f64,
    /// Context switches per second.
    pub ctxt_per_sec: f64,
    /// Mean used memory in bytes during the window.
    pub mem_used_bytes: u64,
    /// Peak process resident set size during the window, bytes.
    pub rss_peak_bytes: u64,
    /// Window length.
    pub wall: Duration,
}

/// What the sampler thread hands back: used-memory samples, peak RSS,
/// and the CPU times at the window's start and end.
type Samples = (Vec<u64>, u64, CpuTimes, CpuTimes);

/// A background sampler; start before the workload, stop after.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Samples>>,
    started: Instant,
    ncpu: usize,
}

impl Sampler {
    /// Start sampling `/proc` every `interval`.
    pub fn start(interval: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("lb-sampler".into())
            .spawn(move || {
                let first = read_cpu_times();
                let mut mems = Vec::new();
                let mut rss_peak = 0u64;
                while !stop2.load(Ordering::Relaxed) {
                    mems.push(read_mem_used());
                    rss_peak = rss_peak.max(read_self_rss());
                    std::thread::sleep(interval);
                }
                let last = read_cpu_times();
                (mems, rss_peak, first, last)
            })
            .expect("spawn sampler");
        Sampler {
            stop,
            handle: Some(handle),
            started: Instant::now(),
            ncpu: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Stop and aggregate.
    pub fn stop(mut self) -> SysStats {
        let wall = self.started.elapsed();
        self.stop.store(true, Ordering::Relaxed);
        let (mems, rss_peak, first, last) = self
            .handle
            .take()
            .expect("sampler running")
            .join()
            .expect("sampler joins");
        let busy = last.busy().saturating_sub(first.busy()) as f64;
        let total = last.total().saturating_sub(first.total()) as f64;
        let util_frac = if total > 0.0 { busy / total } else { 0.0 };
        let ctxt = last.ctxt.saturating_sub(first.ctxt) as f64;
        SysStats {
            // Paper's rescale: 100% per core.
            cpu_util_pct: util_frac * 100.0 * self.ncpu as f64,
            ctxt_per_sec: if wall.as_secs_f64() > 0.0 {
                ctxt / wall.as_secs_f64()
            } else {
                0.0
            },
            mem_used_bytes: if mems.is_empty() {
                0
            } else {
                mems.iter().sum::<u64>() / mems.len() as u64
            },
            rss_peak_bytes: rss_peak,
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat_format() {
        let s = "cpu  100 20 50 800 30 5 5 0 0 0\ncpu0 ...\nctxt 123456\n";
        let t = parse_cpu_times(s);
        assert_eq!(t.user, 120);
        assert_eq!(t.system, 50);
        assert_eq!(t.idle, 830);
        assert_eq!(t.irq, 5);
        assert_eq!(t.softirq, 5);
        assert_eq!(t.ctxt, 123456);
        assert_eq!(t.busy(), 180);
    }

    #[test]
    fn parses_meminfo() {
        let s = "MemTotal:       16384 kB\nMemFree:        1024 kB\nMemAvailable:   8192 kB\n";
        assert_eq!(parse_mem_used(s), (16384 - 8192) * 1024);
    }

    #[test]
    fn live_reads_work() {
        let t = read_cpu_times();
        assert!(t.total() > 0);
        assert!(read_mem_used() > 0);
    }

    #[test]
    fn sampler_produces_stats() {
        let s = Sampler::start(Duration::from_millis(5));
        // Burn a little CPU so utilisation is nonzero.
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(30) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        let st = s.stop();
        assert!(st.wall >= Duration::from_millis(30));
        assert!(st.mem_used_bytes > 0);
        assert!(st.cpu_util_pct >= 0.0);
    }
}
