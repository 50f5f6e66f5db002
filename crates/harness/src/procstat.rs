//! `/proc` samplers for the paper's memory metric (§4.3): system memory
//! usage as `MemTotal − MemAvailable` from `/proc/meminfo`, plus this
//! process's peak resident set size.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// Aggregated memory statistics over a measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SysStats {
    /// Mean used memory in bytes during the window.
    pub mem_used_bytes: u64,
    /// Peak process resident set size during the window, bytes.
    pub rss_peak_bytes: u64,
}

/// A background sampler; start before the workload, stop after.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<SysStats>,
}

impl Sampler {
    /// Start sampling `/proc` every `interval`.
    pub fn start(interval: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("lb-sampler".into())
            .spawn(move || {
                let mut mem_sum = 0u64;
                let mut samples = 0u64;
                let mut rss_peak = 0u64;
                while !stop2.load(Ordering::Relaxed) {
                    mem_sum += read_mem_used();
                    samples += 1;
                    rss_peak = rss_peak.max(read_self_rss());
                    std::thread::sleep(interval);
                }
                SysStats {
                    mem_used_bytes: mem_sum.checked_div(samples).unwrap_or(0),
                    rss_peak_bytes: rss_peak,
                }
            })
            .expect("spawn sampler");
        Sampler { stop, handle }
    }

    /// Stop and aggregate.
    pub fn stop(self) -> SysStats {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler joins")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_meminfo() {
        let s = "MemTotal:       16384 kB\nMemFree:        1024 kB\nMemAvailable:   8192 kB\n";
        assert_eq!(parse_mem_used(s), (16384 - 8192) * 1024);
    }

    #[test]
    fn live_reads_work() {
        assert!(read_mem_used() > 0);
        assert!(read_self_rss() > 0);
    }

    #[test]
    fn sampler_produces_stats() {
        let s = Sampler::start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(30));
        let st = s.stop();
        assert!(st.mem_used_bytes > 0);
        assert!(st.rss_peak_bytes > 0);
    }
}
