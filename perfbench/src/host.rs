//! The process and host around a run: the state guard, CPU pinning, peak
//! memory, and the provenance fingerprint printed with every result.

/// Refuse to run when process-wide state would silently change what is
/// measured. `LB_*` variables are parsed once per process by the crates
/// under test (pool size, tier, fault plans, verification, telemetry), and
/// an armed fault plan injects failures.
pub fn check_process_state() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("LB_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with LB_* variables set: {}",
            set.join(", ")
        ));
    }
    lb_chaos::init_from_env();
    if lb_chaos::armed() {
        return Err("refusing to run with a fault-injection plan armed".into());
    }
    Ok(())
}

/// CPUs this process may run on, read before any thread is pinned (a
/// pinned thread sees only its own CPU).
pub fn cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pin the calling thread to `cpu` (modulo the CPU count). Best effort: a
/// refused call leaves the thread where the scheduler puts it.
pub fn pin_to_cpu(cpu: usize) {
    // SAFETY: the set is zero-initialised plain data, sized as the call
    // is told, and outlives the call.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(cpu % cpus(), &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set);
    }
}

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// A thread that keeps one CPU from going idle: pinned there at
/// `SCHED_IDLE` priority, it spins only while no other thread wants the
/// CPU. An idle vCPU halts, and the hypervisor's cost to wake it (and
/// the caches other tenants leave cold meanwhile) changes with the
/// host's load by tens of microseconds per request; with the CPU kept
/// awake, a request pays only the kernel's wake-up of the worker.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Start spinning on `cpu`; fails if the thread cannot lower itself
    /// to `SCHED_IDLE`, since at normal priority it would take CPU time
    /// from the thread it keeps awake for.
    pub fn start(cpu: usize) -> Result<KeepAwake, String> {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            pin_to_cpu(cpu);
            let param = SchedParam { sched_priority: 0 };
            // SAFETY: `param` is a valid sched_param for the call's
            // duration; pid 0 is the calling thread.
            let ok = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
            let _ = tx.send(ok);
            if !ok {
                return;
            }
            while !stop2.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let mut awake = KeepAwake {
            stop,
            thread: Some(thread),
        };
        if rx.recv() != Ok(true) {
            awake.stop_and_join();
            return Err("cannot run a SCHED_IDLE thread to keep the worker's CPU awake".into());
        }
        Ok(awake)
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .map(|v| v.trim_start_matches(':').trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let v = status_field("VmHWM").ok_or("VmHWM missing from /proc/self/status")?;
    let kb: f64 = v
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM {v:?}: {e}"))?;
    Ok(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{refname}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host fingerprint as JSON object members (no braces).
pub fn fingerprint() -> String {
    format!(
        "\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"git_revision\": {}",
        cpus(),
        json_str(&cpu_model()),
        json_str(&kernel_release()),
        json_str(&git_revision())
    )
}
