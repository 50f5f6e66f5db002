//! The one JSON record every `quickperf` mode writes: a header saying
//! where and how the numbers were taken, then one object per row.

use lb_harness::stats::{self, Estimate};
use lb_telemetry::json::{self, JsonValue};
use std::fmt::{self, Display, Write as _};

/// A JSON object built field by field; a record row or its header.
#[derive(Debug, Clone)]
pub struct Row(String);

impl Row {
    /// A row whose `"row"` field is `name`.
    pub fn new(name: &str) -> Row {
        Row("{".into()).text("row", name)
    }

    fn key(mut self, key: &str) -> Row {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        json::write_key(&mut self.0, key);
        self
    }

    /// Add a field whose value prints as a JSON literal: a number, a
    /// bool, or an array of them.
    pub fn field(self, key: &str, value: impl Display) -> Row {
        let mut row = self.key(key);
        let _ = write!(row.0, "{value}");
        row
    }

    /// Add a string field.
    pub fn text(self, key: &str, value: &str) -> Row {
        let mut row = self.key(key);
        json::write_str(&mut row.0, value);
        row
    }

    /// Add an A/B measurement: `names[i]` labels `est[i]`, arm 0 is the
    /// baseline, and the one estimate past `names` is the baseline's A/A
    /// repeat. Each other arm gets its time, its ratio to the baseline
    /// and that ratio's CI; the A/A arm's CI is the row's noise floor.
    ///
    /// # Panics
    /// Unless there is one name per arm but the A/A arm.
    pub fn ab(self, names: &[&str], est: &[Estimate]) -> Row {
        assert_eq!(names.len() + 1, est.len(), "one name per arm but A/A");
        let last = est.len() - 1;
        let arms: Vec<String> = (1..last)
            .map(|i| {
                Row("{".into())
                    .text("arm", names[i])
                    .field("ns", format!("{:.1}", est[i].secs * 1e9))
                    .field("ratio", format!("{:.4}", est[i].ratio))
                    .field("ci", ci(est[i].ci))
                    .to_string()
            })
            .collect();
        self.text("baseline", names[0])
            .field("baseline_ns", format!("{:.1}", est[0].secs * 1e9))
            .field("arms", format!("[{}]", arms.join(",")))
            .field("aa_ci", ci(est[last].ci))
    }
}

impl Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}}}", self.0)
    }
}

fn ci((lo, hi): (f64, f64)) -> String {
    format!("[{lo:.4},{hi:.4}]")
}

/// Write the record for `mode` to `path`: the header (mode, description,
/// command line, git revision, kernel release, CPU count and the A/B
/// constants), then `rows`. Then read the file back and check that it
/// parses and carries every header field unchanged.
///
/// # Panics
/// If the file cannot be written or does not read back as written.
pub fn write(path: &str, mode: &str, description: &str, rows: &[Row]) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = Row("{".into())
        .text("mode", mode)
        .text("description", description)
        .text("command", &std::env::args().collect::<Vec<_>>().join(" "))
        .text("git_revision", &git_revision())
        .text("kernel", &kernel_release())
        .field("cpus", cpus)
        .field("rounds", stats::ROUNDS)
        .field("seed", stats::SEED)
        .field("resamples", stats::RESAMPLES)
        .field("min_sample_us", stats::MIN_SAMPLE.as_micros());
    let lines: Vec<String> = rows.iter().map(|r| format!("\n  {r}")).collect();
    let doc = header
        .clone()
        .field("rows", format!("[{}\n]", lines.join(",")));
    lb_harness::atomic_write(std::path::Path::new(path), format!("{doc}\n").as_bytes())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));

    let back = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let back = json::parse(&back).unwrap_or_else(|e| panic!("{path} does not parse: {e}"));
    let Ok(JsonValue::Obj(head)) = json::parse(&header.to_string()) else {
        panic!("record header is not an object");
    };
    for (key, value) in &head {
        assert_eq!(back.get(key), Some(value), "{path}: header field {key}");
    }
    println!("wrote {path}");
}

/// The checked-out commit, with `-dirty` when the tree has local edits;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args("describe --always --dirty --abbrev=40 --exclude=*".split(' '))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}
